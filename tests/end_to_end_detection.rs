//! Cross-crate integration: fault detection end to end, from the fault
//! model through the engine, the schemes, and the pipeline.

use aiga::core::pipeline::{PipelineFault, ProtectedPipeline};
use aiga::core::{Planner, ProtectedGemm, Scheme};
use aiga::gpu::engine::{FaultKind, FaultPlan, Matrix};
use aiga::gpu::{DeviceSpec, GemmShape};
use aiga::nn::{zoo, Network};

/// Every protected scheme detects an exponent-bit corruption at every
/// strike time (early, middle, late, epilogue).
#[test]
fn all_schemes_detect_exponent_flips_at_all_strike_times() {
    let shape = GemmShape::new(48, 48, 64);
    for scheme in Scheme::all_protected() {
        for after_step in [0u64, 15, 31, u64::MAX] {
            let fault = FaultPlan {
                row: 11,
                col: 23,
                after_step,
                kind: FaultKind::BitFlip(30),
            };
            let report = ProtectedGemm::random(shape, scheme, 3)
                .with_fault(fault)
                .run();
            assert!(
                report.verdict.is_detected(),
                "{scheme} missed a bit-30 flip at step {after_step}"
            );
        }
    }
}

/// No scheme false-positives across a spread of shapes and seeds.
#[test]
fn no_false_positives_across_shapes_and_seeds() {
    for shape in [
        GemmShape::new(16, 16, 16),
        GemmShape::new(33, 17, 55), // unaligned
        GemmShape::new(8, 128, 64), // skinny
        GemmShape::new(128, 8, 64),
    ] {
        for scheme in Scheme::all_protected() {
            for seed in [1u64, 2, 3] {
                let report = ProtectedGemm::random(shape, scheme, seed).run();
                assert!(
                    report.verdict.is_clean(),
                    "{scheme} false positive on {shape} seed {seed}: {:?}",
                    report.verdict
                );
            }
        }
    }
}

/// The intensity-guided plan, applied to a real functional pipeline,
/// detects faults in every layer regardless of which scheme each layer
/// selected.
#[test]
fn intensity_guided_pipeline_catches_faults_in_every_layer() {
    let model = zoo::dlrm_mlp_bottom(32);
    let plan = Planner::new(DeviceSpec::t4()).plan(&model);
    let schemes: Vec<Scheme> = plan.chosen_schemes();
    let pipeline = ProtectedPipeline::compile(&Network::from_mlp(&model, 5), &schemes);
    let input = Matrix::random(32, 13, 555);

    for layer in 0..pipeline.depth() {
        let report = pipeline.infer(
            &input,
            Some(PipelineFault {
                layer,
                fault: FaultPlan {
                    row: 2,
                    col: 3,
                    after_step: 1,
                    kind: FaultKind::AddValue(75.0),
                },
            }),
        );
        assert!(report.fault_detected(), "layer {layer} fault escaped");
        assert!(
            report.detections.iter().any(|d| d.layer == layer),
            "detection did not localize to layer {layer}"
        );
    }
}

/// A corrupted early layer changes the final output when unprotected —
/// the motivation for detection — and detection does not perturb the
/// math at all.
#[test]
fn protection_is_transparent_to_the_computed_result() {
    let net = Network::from_mlp(&zoo::dlrm_mlp_top(16), 9);
    let input = Matrix::random(16, 512, 777);
    let uniform = |scheme| ProtectedPipeline::compile(&net, &vec![scheme; net.gemm_count()]);
    let unprotected = uniform(Scheme::Unprotected).infer(&input, None);
    for scheme in [Scheme::GlobalAbft, Scheme::ThreadLevelOneSided] {
        let protected = uniform(scheme).infer(&input, None);
        assert_eq!(
            protected.output, unprotected.output,
            "{scheme} altered the computation"
        );
    }
}
