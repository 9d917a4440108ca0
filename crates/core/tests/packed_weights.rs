//! Bind-time packed weights, the live-extent walk and the row-streamed
//! global-ABFT sums, pinned from the outside.
//!
//! A bound layer holds its weights as [`PackedWeights`] and a request
//! stages, computes and checks only the register tiles its own rows
//! touch. None of that may move a byte: outputs, detections, residuals
//! and thresholds must equal what a fresh pack on a throwaway workspace
//! produces, on every `GemmPath` the host runs, shared across threads,
//! and the sums global ABFT compares must equal the per-column
//! reductions they replaced.

use aiga_core::kernel::{FaultSite, Verdict};
use aiga_core::schemes::{GlobalAbft, MultiChecksumAbft, Scheme};
use aiga_gpu::engine::simd::on_each_path;
use aiga_gpu::engine::{
    gemm, gemm_into, CheckScratch, Dest, Dtype, FaultKind, FaultPlan, GemmOutput, Im2colView,
    Matrix, MatrixView, PackedWeights, Workspace, MICRO_MR, MICRO_NR,
};
use aiga_util::rng::Rng64;
use std::sync::{Arc, Barrier};

const SCHEMES: [Scheme; 7] = [
    Scheme::Unprotected,
    Scheme::GlobalAbft,
    Scheme::ThreadLevelOneSided,
    Scheme::ThreadLevelTwoSided,
    Scheme::ReplicationSingleAcc,
    Scheme::ReplicationTraditional,
    Scheme::MultiChecksum(2),
];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The kernel-level verdict the scheme's own check reaches on `out`.
fn kernel_verdict(scheme: Scheme, a: &Matrix, b: &Matrix, out: &GemmOutput) -> Verdict {
    let v = match scheme {
        Scheme::GlobalAbft => GlobalAbft::prepare(b).verify(a, out),
        Scheme::MultiChecksum(r) => {
            let multi = MultiChecksumAbft::prepare(b, r as usize).verify(a, out);
            match multi.first_failing_round() {
                Some(round) => multi.rounds[round],
                None => return Verdict::Clean,
            }
        }
        _ => match out.detections.first() {
            Some(d) => {
                return Verdict::Detected {
                    residual: d.residual,
                    threshold: d.threshold,
                }
            }
            None => return Verdict::Clean,
        },
    };
    if v.fault_detected {
        Verdict::Detected {
            residual: v.residual,
            threshold: v.threshold,
        }
    } else {
        Verdict::Clean
    }
}

#[test]
fn bound_panels_equal_a_fresh_pack_byte_for_byte() {
    // One workspace serves every shape, scheme and dtype in turn — the
    // pooled-serving regime — against `engine::gemm` packing the plain
    // matrix into a throwaway each time (a 1-row request covers 1 of
    // its block's 16 strips). K = 27 pads to 32; n = 1000 leaves a
    // partial panel.
    let k = 27;
    on_each_path(|path| {
        let mut ws = Workspace::new();
        for dtype in Dtype::ALL {
            for m in [1usize, 3, 4, 5, 17, 64] {
                for n in [8usize, 24, 1000] {
                    let seed = (m * 31 + n) as u64;
                    let a = Matrix::random_dtype(m, k, seed, dtype);
                    let b = Matrix::random_dtype(k, n, seed + 1, dtype);
                    let fault = FaultPlan {
                        row: m - 1,
                        col: n - 1,
                        after_step: [1, u64::MAX][(m + n) % 2],
                        kind: FaultKind::AddValue(4096.0),
                    };
                    for scheme in SCHEMES {
                        let bound = scheme.bind(&b);
                        let tile = scheme.tile_scheme(k.next_multiple_of(8));
                        for faults in [&[][..], &[fault][..]] {
                            let ctx = format!("{scheme} {dtype} {m}x{n} {path:?} {faults:?}");
                            let verdict = bound.run_into(a.view(), faults, Dest::None, &mut ws);
                            let fresh = gemm(&a, &b, tile, faults);
                            let got = ws.output();
                            assert_eq!(bits(&got.c), bits(&fresh.c), "{ctx}");
                            assert_eq!(got.detections, fresh.detections, "{ctx}");
                            assert_eq!(got.counters, fresh.counters, "{ctx}");
                            assert_eq!(verdict, kernel_verdict(scheme, &a, &b, &fresh), "{ctx}");
                            assert_eq!(
                                verdict.fault_flagged(),
                                !faults.is_empty() && scheme != Scheme::Unprotected,
                                "{ctx}"
                            );
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn one_packed_layer_serves_two_threads() {
    // Two workers, each with a private workspace, stream the same
    // panels at the same time (the barrier makes every round overlap)
    // and must both reproduce the single-threaded bytes — data,
    // detections and counters — under a lane-carrying scheme that also
    // reads the packed checksum columns.
    let (m, n, k) = (5usize, 1000usize, 1024usize);
    let a = [Matrix::random(m, k, 1), Matrix::random(m, k, 2)];
    let b = Matrix::random(k, n, 3);
    let tile = Scheme::ThreadLevelTwoSided.tile_scheme(k);
    let fault = FaultPlan {
        row: 2,
        col: 777,
        after_step: 9,
        kind: FaultKind::AddValue(512.0),
    };
    let packed = Arc::new(PackedWeights::pack(&b, tile.lanes));
    let want: Vec<GemmOutput> = a.iter().map(|a| gemm(a, &b, tile, &[fault])).collect();
    assert!(want.iter().all(|w| w.detections.len() == 1));
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for (a, want) in a.iter().zip(&want) {
            let (packed, barrier) = (Arc::clone(&packed), &barrier);
            scope.spawn(move || {
                let mut ws = Workspace::new();
                for round in 0..8 {
                    barrier.wait();
                    let got = gemm_into(a, &packed, tile, &[fault], Dest::None, &mut ws);
                    assert_eq!(bits(&got.c), bits(&want.c), "round {round}");
                    assert_eq!(got.detections, want.detections, "round {round}");
                    assert_eq!(got.counters, want.counters, "round {round}");
                }
            });
        }
    });
}

#[test]
fn a_batch_one_fault_is_repaired_and_padding_faults_are_no_ops() {
    // m = 1: one live row in a 4-row strip of a 64-row block; n = 40:
    // the last register tile holds 8 live columns and 8 padding ones,
    // and the block pads further still.
    let (m, n, k) = (1usize, 40usize, 64usize);
    let a = Matrix::random(m, k, 21);
    let b = Matrix::random(k, n, 22);
    on_each_path(|path| {
        let mut ws = Workspace::new();
        for scheme in SCHEMES {
            let bound = scheme.bind(&b);
            assert!(bound
                .run_into(a.view(), &[], Dest::None, &mut ws)
                .is_clean());
            let clean = bits(&ws.output().c);

            if scheme != Scheme::Unprotected {
                for (col, after_step) in [(0, 3), (17, u64::MAX), (n - 1, 0)] {
                    let fault = FaultPlan {
                        row: 0,
                        col,
                        after_step,
                        kind: FaultKind::AddValue(300.0),
                    };
                    let ctx = format!("{scheme} {fault:?} on {path:?}");
                    let verdict = bound.run_into(a.view(), &[fault], Dest::None, &mut ws);
                    assert!(verdict.is_detected(), "{ctx}: {verdict:?}");
                    assert_ne!(bits(&ws.output().c), clean, "{ctx}");
                    let verdict = bound.run_into(a.view(), &[fault], Dest::None, &mut ws);
                    let verdict = bound.correct_into(a.view(), &mut ws, verdict);
                    let Verdict::Corrected { site, .. } = verdict else {
                        panic!("{ctx}: {verdict:?}");
                    };
                    match site {
                        FaultSite::Tile { row, col: c, .. } => {
                            assert_eq!(row, 0, "{ctx}");
                            assert!((c..c + MICRO_NR).contains(&col), "{ctx}");
                        }
                        FaultSite::Column { col: c } => assert_eq!(c, col, "{ctx}"),
                        FaultSite::Row { row } => assert_eq!(row, 0, "{ctx}"),
                    }
                    assert_eq!(bits(&ws.output().c), clean, "{ctx}");
                    assert!(ws.output().detections.is_empty(), "{ctx}");
                }
            }

            // Dead rows of the live strip, dead strips, dead columns of
            // the last live register tile, dead register tiles, and
            // cells past the block grid: nothing to strike.
            for (row, col) in [
                (1, 0),
                (MICRO_MR - 1, n - 1),
                (MICRO_MR, 5),
                (31, 0),
                (0, n),
                (0, n.next_multiple_of(MICRO_NR) - 1),
                (0, n.next_multiple_of(MICRO_NR)),
                (0, 127),
                (2, n + 3),
                (4096, 4096),
            ] {
                for after_step in [2, u64::MAX] {
                    let fault = FaultPlan {
                        row,
                        col,
                        after_step,
                        kind: FaultKind::SetValue(f32::NAN),
                    };
                    let ctx = format!("{scheme} {fault:?} on {path:?}");
                    let verdict = bound.run_into(a.view(), &[fault], Dest::None, &mut ws);
                    let verdict = bound.correct_into(a.view(), &mut ws, verdict);
                    assert!(verdict.is_clean(), "{ctx}: {verdict:?}");
                    assert_eq!(bits(&ws.output().c), clean, "{ctx}");
                    assert!(ws.output().detections.is_empty(), "{ctx}");
                }
            }
        }
    });
}

/// The reduction tree global ABFT has always used: split at `n/2`.
fn pairwise_oracle(values: &[f32]) -> f32 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        n => {
            let (lo, hi) = values.split_at(n / 2);
            pairwise_oracle(lo) + pairwise_oracle(hi)
        }
    }
}

/// The per-column activation checksum the row-streamed one replaced:
/// gather one column, sum it pairwise, sum its magnitudes in row order.
fn checksum_oracle(a: MatrixView<'_>) -> (Vec<u32>, Vec<u64>) {
    let mut col = vec![0.0f32; a.rows];
    let (mut chk, mut abs) = (Vec::new(), Vec::new());
    for k in 0..a.cols {
        let mut magnitude = 0.0f64;
        for (i, slot) in col.iter_mut().enumerate() {
            *slot = a.get_f32(i, k);
            magnitude += (*slot as f64).abs();
        }
        chk.push(pairwise_oracle(&col).to_bits());
        abs.push(magnitude.to_bits());
    }
    (chk, abs)
}

#[test]
fn row_streamed_sums_equal_the_per_column_reductions() {
    // One scratch across every case, so stale stack contents from a
    // deeper tree cannot leak into a shallower one.
    let mut scratch = CheckScratch::default();
    let mut check = |a: MatrixView<'_>, ctx: &str| {
        GlobalAbft::activation_checksum_into(a, &mut scratch);
        let got = (
            bits(&scratch.chk),
            scratch.abs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(got, checksum_oracle(a), "{ctx}");
    };
    let channels = 5usize;
    for dtype in Dtype::ALL {
        for rows in [1usize, 2, 3, 7, 256, 257] {
            let ctx = format!("{dtype} rows {rows}");
            let dense = Matrix::random_dtype(rows, 37, rows as u64, dtype);
            check(dense.view(), &format!("row-major {ctx}"));

            // An NCHW tensor with `rows` pixels per plane: the 1×1-conv
            // view has one row per pixel, one column per channel.
            let tensor = Matrix::random_dtype(1, channels * rows, 7 + rows as u64, dtype);
            let pointwise = MatrixView::nchw_lowered(1, channels, rows, &tensor.data, dtype);
            check(pointwise, &format!("nchw {ctx}"));

            // The same tensor as a `rows × 1` image under a 3×3 pad-1
            // conv: one lowered row per pixel, nine taps per channel,
            // six of them (and more at the ends) in the zero padding.
            let geometry = Im2colView {
                channels,
                height: rows,
                width: 1,
                kernel: 3,
                stride: 1,
                padding: 1,
                out_h: rows,
                out_w: 1,
            };
            let fused = MatrixView::im2col_lowered(1, geometry, &tensor.data, dtype);
            assert_eq!((fused.rows, fused.cols), (rows, channels * 9));
            check(fused, &format!("im2col {ctx}"));
        }
    }

    // The output summation is one flat tree over m·n accumulators; its
    // unrolled leaves must keep the split-at-n/2 association at every
    // length, not just the powers of two.
    let mut rng = Rng64::seed_from_u64(9);
    let values: Vec<f32> = (0..256 * 1000 + 7)
        .map(|_| rng.range_f32(-300.0, 300.0))
        .collect();
    for len in (0..=40).chain([255, 256, 257, 1000, 4099, 256 * 1000, values.len()]) {
        let want = pairwise_oracle(&values[..len]);
        let out = GemmOutput {
            c: values[..len].to_vec(),
            m: 1,
            n: len,
            ..GemmOutput::default()
        };
        assert_eq!(GlobalAbft::output_summation(&out).to_bits(), want.to_bits());
    }
}
