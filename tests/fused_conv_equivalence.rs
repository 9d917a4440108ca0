//! Fused-vs-materialized conv lowering equivalence sweep.
//!
//! The fused conv path feeds the protected GEMM engine an
//! `MatrixLayout::Im2col` (k > 1) or `MatrixLayout::NchwLowered` (1×1)
//! *view* of the NCHW activation buffer, so the lowered matrix never
//! exists in memory. The contract is strict: the panel packer walks the
//! view in exactly the element order of the materialized `im2col`
//! lowering, so every downstream byte — outputs, checksums, residuals,
//! detections — is identical.
//!
//! This sweep pins that contract across the zoo's kernel-shape
//! families (SqueezeNet's 7×7 s2 stem, ResNet's strided 3×3, AlexNet's
//! 11×11 s4, a depthwise-ish single-input-channel conv, and a 1×1
//! pointwise), crossed with clean and faulted runs under one scheme per
//! protection family. The same file runs on the CI scalar-oracle leg
//! (`AIGA_FORCE_SCALAR=1`) so both the SIMD and scalar packers are
//! covered.

use aiga::gpu::engine::MatrixView;
use aiga::prelude::*;
use aiga_nn::conv::filters_to_matrix;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One scheme per family: global checksum, one-sided thread-level,
/// replication, and the §2.4 multi-checksum extension.
const SCHEMES: [Scheme; 4] = [
    Scheme::GlobalAbft,
    Scheme::ThreadLevelOneSided,
    Scheme::ReplicationSingleAcc,
    Scheme::MultiChecksum(2),
];

/// Runs `bound` over both lowerings of the same conv and asserts the
/// outputs, verdicts, and detection records are byte-identical.
fn assert_paths_match(
    bound: &BoundGemm,
    materialized: &Matrix,
    fused: MatrixView<'_>,
    faults: &[FaultPlan],
    what: &str,
) {
    let mut ws_m = Workspace::new();
    let mut ws_f = Workspace::new();
    let v_m = bound.run_into(materialized.view(), faults, Dest::None, &mut ws_m);
    let v_f = bound.run_into(fused, faults, Dest::None, &mut ws_f);
    assert_eq!(v_m, v_f, "{what}: verdict diverged");
    assert_eq!(
        bits(&ws_m.output().c),
        bits(&ws_f.output().c),
        "{what}: output bytes diverged"
    );
    assert_eq!(
        ws_m.output().detections,
        ws_f.output().detections,
        "{what}: detection records diverged"
    );
    if !faults.is_empty() {
        assert!(
            !v_m.is_clean(),
            "{what}: injected fault went undetected on both paths"
        );
    }
}

#[test]
fn fused_im2col_view_is_byte_identical_to_materialized_lowering() {
    // (c_in, c_out, kernel, stride, padding, h, w) per zoo family.
    let cases: [(usize, usize, usize, usize, usize, usize, usize); 4] = [
        (3, 8, 7, 2, 0, 19, 17),  // SqueezeNet v1.0 7×7 stride-2 stem
        (4, 6, 3, 2, 1, 13, 11),  // ResNet strided 3×3 downsample
        (3, 4, 11, 4, 2, 23, 19), // AlexNet 11×11 stride-4 stem
        (1, 5, 3, 1, 1, 12, 10),  // depthwise-ish single input channel
    ];
    for (ci, &(c_in, c_out, kernel, stride, padding, h, w)) in cases.iter().enumerate() {
        let batch = 2;
        let seed = 300 + ci as u64 * 2;
        let input = Tensor::random(batch, c_in, h, w, seed);
        let filters = Tensor::random(c_out, c_in, kernel, kernel, seed + 1);
        let weights = filters_to_matrix(&filters);
        let params = ConvParams {
            c_out,
            kernel,
            stride,
            padding,
        };

        let materialized = im2col(&input, params);
        let view = params.im2col_view(c_in, h, w);
        let fused = MatrixView::im2col_lowered(batch, view, &input.data, Dtype::F16);
        assert_eq!(fused.rows, materialized.rows, "case {ci}: row mismatch");
        assert_eq!(fused.cols, materialized.cols, "case {ci}: col mismatch");
        let fault = FaultPlan {
            row: materialized.rows - 1,
            col: c_out - 1,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(500.0),
        };
        for scheme in SCHEMES {
            let bound = scheme.bind(&weights);
            for faults in [&[][..], &[fault][..]] {
                let label = format!(
                    "case {ci} (k{kernel}s{stride}p{padding}) {scheme} {}",
                    if faults.is_empty() {
                        "clean"
                    } else {
                        "faulted"
                    }
                );
                assert_paths_match(&bound, &materialized, fused, faults, &label);
            }
        }
    }
}

#[test]
fn pointwise_nchw_view_is_byte_identical_to_materialized_lowering() {
    let (batch, c_in, c_out, h, w) = (2, 5, 9, 11, 7);
    let input = Tensor::random(batch, c_in, h, w, 340);
    let filters = Tensor::random(c_out, c_in, 1, 1, 341);
    let weights = filters_to_matrix(&filters);
    let params = ConvParams {
        c_out,
        kernel: 1,
        stride: 1,
        padding: 0,
    };
    assert!(params.is_pointwise());

    let materialized = im2col(&input, params);
    let fused = MatrixView::nchw_lowered(batch, c_in, h * w, &input.data, Dtype::F16);
    assert_eq!(fused.rows, materialized.rows);
    assert_eq!(fused.cols, materialized.cols);
    let fault = FaultPlan {
        row: 0,
        col: 1,
        after_step: u64::MAX,
        kind: FaultKind::AddValue(400.0),
    };
    for scheme in SCHEMES {
        let bound = scheme.bind(&weights);
        for faults in [&[][..], &[fault][..]] {
            let label = format!(
                "pointwise {scheme} {}",
                if faults.is_empty() {
                    "clean"
                } else {
                    "faulted"
                }
            );
            assert_paths_match(&bound, &materialized, fused, faults, &label);
        }
    }
}
