//! Quickstart: protect a matrix multiplication with ABFT, inject a soft
//! error, and watch it get caught.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use aiga::prelude::*;

fn main() {
    // A bandwidth-bound layer-sized GEMM (arithmetic intensity well
    // below the T4's CMR of 203).
    let shape = GemmShape::new(128, 64, 256);
    let roofline = Roofline::new(DeviceSpec::t4());
    println!(
        "shape {shape}: arithmetic intensity {:.1}, {:?} bound on a {}",
        shape.arithmetic_intensity_fp16(),
        roofline.classify(shape),
        roofline.device().name,
    );

    // 1. Clean run under one-sided thread-level ABFT: no detection.
    let gemm = ProtectedGemm::random(shape, Scheme::ThreadLevelOneSided, 7);
    let clean = gemm.run();
    assert!(clean.verdict.is_clean());
    println!("clean run: verdict = {:?}", clean.verdict);

    // 2. Corrupt one FP32 accumulator mid-kernel (a wrong partial
    //    product, the §2.3 single-fault model) — the thread-local
    //    checksum check trips. Random *bit-flip* campaigns, including
    //    the sub-threshold flips no tolerance-based checker can see,
    //    live in `examples/fault_campaign.rs`.
    let fault = FaultPlan {
        row: 17,
        col: 42,
        after_step: 31,
        kind: FaultKind::AddValue(25.0),
    };
    let faulty = ProtectedGemm::random(shape, Scheme::ThreadLevelOneSided, 7)
        .with_fault(fault)
        .run();
    match faulty.verdict {
        Verdict::Detected {
            residual,
            threshold,
        } => println!(
            "injected bit flip detected: residual {residual:.3} > threshold {threshold:.3}"
        ),
        Verdict::Corrected { site, .. } => {
            unreachable!("plain run() detects only; correction localized {site:?}")
        }
        Verdict::Clean => unreachable!("the fault must be detected"),
    }

    // 3. The same fault under global ABFT is caught by the kernel-level
    //    checksum comparison instead. Schemes are interchangeable ids —
    //    each binds itself to the weights (`Scheme::bind`).
    let global = ProtectedGemm::random(shape, Scheme::GlobalAbft, 7)
        .with_fault(fault)
        .run();
    println!("global ABFT verdict: {:?}", global.verdict);
    assert!(global.verdict.is_detected());

    // 4. Detection is only half the story: the corrected run localizes
    //    the fault (here: the column the kernel-level checksum
    //    implicates), recomputes just that slice, and re-verifies —
    //    the output is byte-equal to the clean run.
    let mut ws = Workspace::new();
    let gemm = ProtectedGemm::random(shape, Scheme::GlobalAbft, 7);
    let verdict = gemm.run_corrected_into(&[fault], &mut ws);
    match verdict {
        Verdict::Corrected { site, .. } => {
            println!("corrected in place: localized to {site:?}");
        }
        other => unreachable!("global ABFT localizes columns: {other:?}"),
    }
    let clean_global = gemm.run_with(&[]);
    assert_eq!(ws.output().c, clean_global.output.c, "byte-equal repair");
    println!("repaired output is byte-equal to the clean run");
}
