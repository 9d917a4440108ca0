//! Bind-time packed weights, the live-extent walk and the order of the
//! global-ABFT sums, pinned from the outside.
//!
//! A bound layer holds its weights as [`PackedWeights`] and a request
//! stages, computes and checks only the register tiles its own rows
//! touch. None of that may move a byte: outputs, detections, residuals
//! and thresholds must equal what a fresh pack on a throwaway workspace
//! produces, on every `GemmPath` the host runs, shared across threads,
//! and the sums global ABFT compares must follow the order its
//! threshold is derived for, column by column and block by block.

use aiga_core::kernel::{FaultSite, Verdict};
use aiga_core::schemes::{GlobalAbft, MultiChecksumAbft, Scheme};
use aiga_gpu::engine::simd::on_each_path;
use aiga_gpu::engine::{
    gemm, gemm_into, pairwise_sum_f32, CheckScratch, Dest, Dtype, FaultKind, FaultPlan, GemmOutput,
    Im2colView, Matrix, MatrixView, PackedWeights, Workspace, BLOCK_M, BLOCK_N, MICRO_MR, MICRO_NR,
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
        Scheme::GlobalAbft => GlobalAbft::prepare(&PackedWeights::pack(b)).verify(a, out),
        Scheme::MultiChecksum(r) => {
            let multi = MultiChecksumAbft::prepare(&PackedWeights::pack(b), r as usize);
            let multi = multi.verify(a, out);
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
                            if scheme == Scheme::GlobalAbft {
                                // The run's own partials, not just the
                                // verdict they reach, are the serial
                                // reference's.
                                let want = CheckScratch::sum_serially(a.view(), &fresh);
                                let (_, got) = ws.output_and_check();
                                assert_eq!(
                                    (bits(got.stripe_sums()), bits(got.block_sums())),
                                    (bits(want.stripe_sums()), bits(want.block_sums())),
                                    "{ctx}"
                                );
                            }
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
    let packed = Arc::new(PackedWeights::pack(&b));
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

/// The reduction tree global ABFT uses at every level: split at `n/2`.
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

/// The activation checksum in the engine's order, from one gathered
/// column at a time: rows padded with `+0` to whole 4-row strips, each
/// strip `(a₀ + a₁) + (a₂ + a₃)`, each 64-row stripe's strips in the
/// tree, the stripes in the tree; the magnitudes the same way.
fn checksum_oracle(a: MatrixView<'_>) -> (Vec<u32>, Vec<u32>) {
    let (mut chk, mut abs) = (Vec::new(), Vec::new());
    for k in 0..a.cols {
        let mut col: Vec<f32> = (0..a.rows).map(|i| a.get_f32(i, k)).collect();
        col.resize(a.rows.next_multiple_of(MICRO_MR), 0.0);
        let tree = |f: fn(f32) -> f32| {
            let strips: Vec<f32> = col
                .chunks(MICRO_MR)
                .map(|v| (f(v[0]) + f(v[1])) + (f(v[2]) + f(v[3])))
                .collect();
            let stripes: Vec<f32> = strips
                .chunks(BLOCK_M / MICRO_MR)
                .map(pairwise_oracle)
                .collect();
            pairwise_oracle(&stripes).to_bits()
        };
        chk.push(tree(|v| v));
        abs.push(tree(f32::abs));
    }
    (chk, abs)
}

/// `Σ C` in the engine's order, from the flat output: per 64×64 block,
/// each column over the block's rows in the tree, then the columns;
/// then the blocks, block-major, in the tree.
fn output_oracle(c: &[f32], m: usize, n: usize) -> u32 {
    let mut blocks = Vec::new();
    for r0 in (0..m).step_by(BLOCK_M) {
        for c0 in (0..n).step_by(BLOCK_N) {
            let cols: Vec<f32> = (c0..n.min(c0 + BLOCK_N))
                .map(|j| {
                    let col: Vec<f32> = (r0..m.min(r0 + BLOCK_M)).map(|i| c[i * n + j]).collect();
                    pairwise_oracle(&col)
                })
                .collect();
            blocks.push(pairwise_oracle(&cols));
        }
    }
    pairwise_oracle(&blocks).to_bits()
}

#[test]
fn row_streamed_sums_equal_the_per_column_reductions() {
    // The serial reference's activation checksum, combined from its
    // stripe partials, against one gathered column at a time — for
    // every storage format, across the stripe boundaries, in every
    // operand layout.
    let check = |a: MatrixView<'_>, ctx: &str| {
        let out = GemmOutput {
            c: vec![0.0; a.rows],
            m: a.rows,
            n: 1,
            ..GemmOutput::default()
        };
        let mut sums = CheckScratch::sum_serially(a, &out);
        let (chk, abs): (Vec<u32>, Vec<u32>) = sums
            .activation_sums()
            .chunks_exact(2)
            .map(|s| (s[0].to_bits(), s[1].to_bits()))
            .unzip();
        assert_eq!((chk, abs), checksum_oracle(a), "{ctx}");
    };
    let channels = 5usize;
    for dtype in Dtype::ALL {
        for rows in [1usize, 2, 3, 7, 63, 64, 65, 256, 257] {
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

    // The output summation over m × n accumulators: ragged blocks in
    // both directions, one block, one cell, none.
    let mut rng = Rng64::seed_from_u64(9);
    for (m, n) in [
        (0usize, 5usize),
        (1, 1),
        (3, 7),
        (64, 64),
        (65, 1000),
        (256, 1000),
        (130, 129),
    ] {
        let c: Vec<f32> = (0..m * n).map(|_| rng.range_f32(-300.0, 300.0)).collect();
        let out = GemmOutput {
            c: c.clone(),
            m,
            n,
            ..GemmOutput::default()
        };
        let sums = CheckScratch::sum_serially(Matrix::zeros(m, 0).view(), &out);
        assert_eq!(
            sums.output_sum().to_bits(),
            output_oracle(&c, m, n),
            "{m}x{n}"
        );
    }

    // Every level of that order is `pairwise_sum_f32`; its unrolled
    // leaves must keep the split-at-n/2 association at every length,
    // not just the powers of two.
    let values: Vec<f32> = (0..256 * 1000 + 7)
        .map(|_| rng.range_f32(-300.0, 300.0))
        .collect();
    for len in (0..=40).chain([255, 256, 257, 1000, 4099, 256 * 1000, values.len()]) {
        assert_eq!(
            pairwise_sum_f32(&values[..len]).to_bits(),
            pairwise_oracle(&values[..len]).to_bits(),
            "length {len}"
        );
    }
}
