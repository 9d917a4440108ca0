//! The thread-level tile check, pinned from the outside: what flags,
//! what must never flag, and what a detection names.
//!
//! Tests that flip the process-global `GemmPath` override go through
//! `simd::on_each_path`, so the legs of one sweep never run on a path
//! another test forced.

use aiga_core::schemes::Scheme;
use aiga_core::tolerance::exceeds;
use aiga_gpu::engine::simd::on_each_path;
use aiga_gpu::engine::{
    gemm, gemm_into, Dest, Dtype, FaultKind, FaultPlan, Matrix, PackedWeights, Redundancy,
    TileScheme, Workspace, MICRO_MR, MICRO_NR,
};
use aiga_util::rng::Rng64;

const PROTECTED: [Scheme; 6] = [
    Scheme::GlobalAbft,
    Scheme::ThreadLevelOneSided,
    Scheme::ThreadLevelTwoSided,
    Scheme::ReplicationSingleAcc,
    Scheme::ReplicationTraditional,
    Scheme::MultiChecksum(2),
];

#[test]
fn non_finite_faults_flag_under_every_scheme_on_every_path() {
    // `residual > threshold` is false for NaN, so a check written that
    // way passes an accumulator struck to NaN as clean. One NaN and one
    // Inf per scheme × path, striking mid-walk and in the epilogue.
    let (m, n, k) = (48, 40, 56);
    let a = Matrix::random(m, k, 11);
    let b = Matrix::random(k, n, 12);
    on_each_path(|path| {
        let mut ws = Workspace::new();
        for scheme in PROTECTED {
            let bound = scheme.bind(&b);
            for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for after_step in [3, u64::MAX] {
                    let fault = FaultPlan {
                        row: 13,
                        col: 21,
                        after_step,
                        kind: FaultKind::SetValue(value),
                    };
                    let verdict = bound.run_into(a.view(), &[fault], Dest::None, &mut ws);
                    assert!(
                        verdict.is_detected(),
                        "{scheme} passed {value} (step {after_step}) on {path:?}"
                    );
                }
            }
            // The flip the issue names: bit 30 of a value in [1, 2)
            // lands on the all-ones exponent.
            assert!(FaultKind::BitFlip(30).apply(1.5).is_nan());
        }
    });
}

/// The scheme with a floor no residual reaches, so every compare
/// "flags" and reports its clean residual and (shifted) threshold.
fn reporting(scheme: TileScheme) -> TileScheme {
    TileScheme {
        floor: f64::NEG_INFINITY,
        ..scheme
    }
}

#[test]
fn single_faults_flag_iff_they_exceed_the_threshold_and_name_their_column() {
    // Every output cell × {AddValue, BitFlip, SetValue} × {mid-walk,
    // epilogue}, on a ragged shape and an aligned one, under one-sided
    // ABFT. A fault moves the sum its check compares — its row's column
    // group, or in a strip with one live row (33 rows end in one) its
    // column — by `delta` up to that sum's rounding, so with the check's
    // clean residual `r0` known the verdict is determined outside the
    // band `threshold ± r0`.
    for &(m, n, k, seed) in &[(33usize, 65usize, 40usize, 5u64), (32, 32, 32, 6)] {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let scheme = Scheme::ThreadLevelOneSided.tile_scheme(k.next_multiple_of(8));
        let mut ws = Workspace::new();
        let packed = PackedWeights::pack(&b);

        let clean = gemm(&a, &b, scheme, &[]);
        assert!(!clean.fault_detected());
        // The compare covering a cell: `(row, rows, col, cols)`.
        let check = |row: usize, col: usize| {
            let strip = row / MICRO_MR * MICRO_MR;
            match m - strip {
                1 => (strip, MICRO_MR, col, 1),
                _ => (row, 1, col / MICRO_NR * MICRO_NR, MICRO_NR),
            }
        };
        // Clean residual of every compare.
        let probe = gemm(&a, &b, reporting(scheme), &[]);
        let mut r0 = std::collections::HashMap::new();
        for d in &probe.detections {
            r0.insert((d.row, d.col), d.residual);
        }
        // Thresholds are not reported for compares that pass; recompute
        // them from the definition (f64 magnitude; the engine's f32
        // chains differ in the last digits, well inside the band).
        let threshold = |row: usize, col: usize| {
            let (_, _, col0, cols) = check(row, col);
            let magnitude: f64 = (0..k)
                .map(|kk| {
                    let b_abs: f64 = (col0..(col0 + cols).min(n))
                        .map(|j| b.get_f64(kk, j).abs())
                        .sum();
                    a.get_f64(row, kk).abs() * b_abs
                })
                .sum();
            scheme.slope * magnitude + scheme.floor
        };

        let mut flagged = 0usize;
        let mut passed = 0usize;
        for row in 0..m {
            for col in 0..n {
                let i = row * n + col;
                let kinds = [
                    FaultKind::AddValue([1e-6, 1e-4, 1e-2, 8.0][i % 4] * [1.0, -1.0][i / 4 % 2]),
                    FaultKind::BitFlip((i % 32) as u8),
                    FaultKind::SetValue([0.0, 1e3, -0.5, f32::NAN][i % 4]),
                ];
                for kind in kinds {
                    for after_step in [(i % 4) as u64, u64::MAX] {
                        let fault = FaultPlan {
                            row,
                            col,
                            after_step,
                            kind,
                        };
                        let out = gemm_into(&a, &packed, scheme, &[fault], Dest::None, &mut ws);
                        let delta = (out.get(row, col) as f64 - clean.get(row, col) as f64).abs();
                        let (at_row, _, at_col, _) = check(row, col);
                        let (thr, noise) = (threshold(row, col), r0[&(at_row, at_col)]);
                        let ctx = format!("{m}x{n}x{k} {fault:?}: delta {delta:e}, thr {thr:e}");
                        if delta.is_nan() || delta > thr + noise + 1e-9 * thr {
                            assert_eq!(out.detections.len(), 1, "missed {ctx}");
                        } else if delta < thr - noise - 1e-9 * thr {
                            assert!(out.detections.is_empty(), "false alarm {ctx}");
                        }
                        match out.detections.as_slice() {
                            [] => passed += 1,
                            [d] => {
                                flagged += 1;
                                assert_eq!((d.row, d.rows, d.col, d.cols), check(row, col));
                                assert!((d.threshold - thr).abs() <= 1e-5 * thr, "{ctx}");
                                assert!(exceeds(d.residual, d.threshold), "{ctx}");
                            }
                            more => panic!("{} detections for one fault: {ctx}", more.len()),
                        }
                    }
                }
            }
        }
        // The fault mix straddles the threshold: both outcomes occur.
        assert!(flagged > m * n && passed > m * n, "{flagged} / {passed}");
    }
}

#[test]
fn per_tile_checks_name_the_tile_containing_the_fault() {
    // Two-sided ABFT and single-accumulation replication compare whole
    // register tiles; traditional replication compares cells. Each
    // detection must cover the faulted cell: every cell of a ragged
    // shape, then — across two block rows and three block columns —
    // every column of the rows on either side of the block edge and of
    // the ragged last strip.
    for ((m, n, k), rows) in [
        ((33, 65, 40), (0..33).collect::<Vec<usize>>()),
        ((70, 131, 24), vec![0, 63, 64, 69]),
    ] {
        let a = Matrix::random(m, k, 5);
        let b = Matrix::random(k, n, 6);
        let mut ws = Workspace::new();
        for (scheme, cols) in [
            (Scheme::ThreadLevelTwoSided, MICRO_NR),
            (Scheme::ReplicationSingleAcc, MICRO_NR),
            (Scheme::ReplicationTraditional, 1),
        ] {
            let tile = scheme.tile_scheme(k.next_multiple_of(8));
            let packed = PackedWeights::pack(&b);
            for &row in &rows {
                for col in 0..n {
                    let fault = FaultPlan {
                        row,
                        col,
                        after_step: [2, u64::MAX][(row + col) % 2],
                        kind: FaultKind::AddValue(64.0),
                    };
                    let out = gemm_into(&a, &packed, tile, &[fault], Dest::None, &mut ws);
                    let at = format!("{scheme} at ({row},{col}) of {m}x{n}");
                    assert_eq!(out.detections.len(), 1, "{at}");
                    let d = &out.detections[0];
                    assert_eq!(
                        (d.row, d.col, d.cols),
                        (row / MICRO_MR * MICRO_MR, col / cols * cols, cols),
                        "{at}"
                    );
                }
            }
        }
    }
}

#[test]
fn clean_gemms_never_flag_in_any_dtype_on_either_path() {
    // The benchmark counts any detection on a clean request as a failed
    // request, and the f32-chain threshold is far tighter than the
    // fp16-chain one it replaced: 200 seeded clean GEMMs per dtype, K up
    // to 1152 (the zoo's deepest 3×3 conv), both ABFT lane kinds, both
    // paths — zero detections. Every fourth problem is adversarial for a
    // magnitude taken as |Σ a| instead of Σ |a|: its strips hold ±pairs,
    // so every strip sum cancels to zero while the data accumulators
    // still round.
    let mut rng = Rng64::seed_from_u64(0x7115);
    let mut problems = Vec::new();
    for i in 0..200u64 {
        let m = rng.range_usize(1, 41);
        let n = rng.range_usize(1, 49);
        let k = [8, 24, 72, 144, 288, 576, 1152][rng.range_usize(0, 7)];
        problems.push((m, n, k, 1000 + i, i % 4 == 3));
    }
    on_each_path(|path| {
        let mut ws = Workspace::new();
        for dtype in Dtype::ALL {
            for &(m, n, k, seed, cancelling) in &problems {
                let mut a = Matrix::random_dtype(m, k, seed, dtype);
                if cancelling {
                    for r in (1..m).step_by(2) {
                        for c in 0..k {
                            let above = dtype.decode(a.get(r - 1, c).to_bits());
                            a.set(r, c, aiga_dtype::F16(dtype.encode(-above)));
                        }
                    }
                }
                let b = Matrix::random_dtype(k, n, seed + 7, dtype);
                for scheme in [Scheme::ThreadLevelOneSided, Scheme::ThreadLevelTwoSided] {
                    let tile = scheme.tile_scheme(k.next_multiple_of(8));
                    let packed = PackedWeights::pack(&b);
                    let out = gemm_into(&a, &packed, tile, &[], Dest::None, &mut ws);
                    assert!(
                        out.detections.is_empty(),
                        "{scheme} {dtype} {m}x{n}x{k} seed {seed} on {path:?}: {:?}",
                        out.detections[0]
                    );
                }
            }
        }
    });
}

#[test]
fn replication_checks_cannot_false_alarm_by_construction() {
    // Both copies run one instruction sequence: clean tiles are
    // bit-identical, whatever the threshold.
    let (m, n, k) = (33, 65, 1152);
    let a = Matrix::random(m, k, 1);
    let b = Matrix::random(k, n, 2);
    for lanes in [Redundancy::ShadowExact, Redundancy::ShadowSum] {
        let strict = TileScheme {
            lanes,
            slope: 0.0,
            floor: 0.0,
        };
        assert!(!gemm(&a, &b, strict, &[]).fault_detected(), "{lanes:?}");
    }
}
