//! Protecting a convolution end to end: a one-conv network compiled
//! into the protected pipeline — the engine gathers the im2col lowering
//! straight from the NCHW input — and fault detection in feature-map
//! coordinates.
//!
//! ```sh
//! cargo run --release --example protected_convolution
//! ```

use aiga::prelude::*;

fn main() {
    // A 3x3, stride-1 convolution over a 32x32 RGB region — the shape of
    // an early specialized-CNN layer — with no ReLU, so the reply is the
    // raw convolution output.
    let (c_out, ho, wo) = (16, 32, 32);
    let mut builder = NetworkBuilder::new("conv", 1, 3, 32, 32, 12);
    builder.conv("conv3x3", c_out, 3, 1, 1, false);
    let net = builder.build();
    let conv = ProtectedPipeline::compile(&net, &[Scheme::ThreadLevelOneSided]);
    // A request is one flattened NCHW image; the reply is NCHW too.
    let input = Matrix::random(1, 3 * 32 * 32, 11);

    let clean = conv.infer(&input, None);
    println!(
        "conv 3->16, 3x3/s1/p1 over 32x32: output {ho}x{wo}, lowered GEMM \
         M={} N=16 K=27, detections {:?}",
        ho * wo,
        clean.detections
    );
    assert!(!clean.fault_detected());
    let (n, c, oy, ox) = (0, 5, 10, 10);
    println!(
        "activation ({n}, {c}, {oy}, {ox}) = {:.3}",
        clean.output[((n * c_out + c) * ho + oy) * wo + ox]
    );

    // A soft error striking the accumulator of output pixel (channel 5,
    // y=10, x=10) mid-kernel is caught by the thread-local check. The
    // fault addresses the lowered GEMM: row (n·Ho + oy)·Wo + ox, column c.
    let fault = PipelineFault {
        layer: 0,
        fault: FaultPlan {
            row: (n * ho + oy) * wo + ox,
            col: c,
            after_step: 4,
            kind: FaultKind::BitFlip(29),
        },
    };
    let faulty = conv.infer(&input, Some(fault));
    println!(
        "after injected bit flip: detections {:?}",
        faulty.detections
    );
    assert!(faulty.fault_detected());
}
