//! Per-model end-to-end serving latency: compiled zoo networks (conv
//! layers lowered through workspace-threaded im2col onto the protected
//! engine) and the DLRM MLP families, each through a warm
//! `Session::serve`.
//!
//! Results land in `BENCH_models.json` (median/mean ns, iteration
//! counts, git rev) so the cost of whole-network protected inference —
//! not just isolated GEMMs — is tracked as data across PRs. Each timed
//! row is paired with a derived `<name>_gflops` effective-throughput
//! row (GEMM FLOPs / median latency), mirroring `BENCH_engine.json`.
//! Most compiled CNNs run at trimmed resolutions for stable end-to-end
//! workloads; SqueezeNet v1.1 additionally runs at the paper's 224×224
//! to exercise the fused im2col path at real scale.

use aiga_bench::harness::Recorder;
use aiga_core::{Planner, Session};
use aiga_gpu::engine::Matrix;
use aiga_gpu::DeviceSpec;
use aiga_nn::zoo;
use aiga_nn::Model;
use std::hint::black_box;

/// Total GEMM work in the model, for effective-throughput rows.
fn model_flops(model: &Model) -> u64 {
    model.layers.iter().map(|l| l.shape.flops()).sum()
}

/// Times warm `Session::serve` and records the latency row plus a
/// derived `<name>_gflops` effective-throughput row (GEMM FLOPs over
/// median wall time — epilogues ride along for free), matching the
/// `BENCH_engine.json` convention.
fn bench_session(rec: &mut Recorder, name: &str, session: &Session, request: &Matrix, flops: u64) {
    session.serve(request).unwrap(); // compile the bucket + warm the pool
    session.serve(request).unwrap();
    let median_ns = rec
        .bench(name, || {
            black_box(session.serve(request).unwrap());
        })
        .median_ns;
    rec.record_value(
        &format!("{name}_gflops"),
        flops as f64 / median_ns,
        "gflop/s",
    );
}

fn main() {
    let mut rec = Recorder::new("models");

    // --- Compiled CNNs: real FP16 weights, conv → im2col → protected
    // GEMM, pooling/concat/residual epilogues between stages.
    let squeezenet = Session::builder_network(Planner::new(DeviceSpec::t4()), "squeezenet", |b| {
        zoo::squeezenet_net(b, 32, 32, 7)
    })
    .buckets([4])
    .build();
    let sq_features = 3 * 32 * 32;
    bench_session(
        &mut rec,
        "models/squeezenet_32x32_b4",
        &squeezenet,
        &Matrix::random(4, sq_features, 1),
        model_flops(&zoo::squeezenet_net(4, 32, 32, 7).to_model()),
    );

    // SqueezeNet v1.1 at the paper's ImageNet resolution (batch 1):
    // the fused conv path's marquee workload — the 224×224 stem and the
    // 55²/27² fire stages never materialize their lowered matrices.
    let squeezenet224 =
        Session::builder_network(Planner::new(DeviceSpec::t4()), "squeezenet-v11", |b| {
            zoo::squeezenet_v11_net(b, 224, 224, 7)
        })
        .buckets([1])
        .build();
    bench_session(
        &mut rec,
        "models/squeezenet_224_b1",
        &squeezenet224,
        &Matrix::random(1, 3 * 224 * 224, 5),
        model_flops(&zoo::squeezenet_v11_net(1, 224, 224, 7).to_model()),
    );

    let block = Session::builder_network(Planner::new(DeviceSpec::t4()), "resnet-block", |b| {
        zoo::resnet_block_net(b, 16, 16, 7)
    })
    .buckets([4])
    .build();
    bench_session(
        &mut rec,
        "models/resnet_block_16x16_b4",
        &block,
        &Matrix::random(4, 16 * 16 * 16, 2),
        model_flops(&zoo::resnet_block_net(4, 16, 16, 7).to_model()),
    );

    // --- MLP families (synthesized weights), for the serving baseline.
    let bottom = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([32])
    .build();
    bench_session(
        &mut rec,
        "models/dlrm_bottom_b32",
        &bottom,
        &Matrix::random(32, 13, 3),
        model_flops(&zoo::dlrm_mlp_bottom(32)),
    );

    let top = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-top",
        zoo::dlrm_mlp_top,
    )
    .buckets([32])
    .build();
    bench_session(
        &mut rec,
        "models/dlrm_top_b32",
        &top,
        &Matrix::random(32, 512, 4),
        model_flops(&zoo::dlrm_mlp_top(32)),
    );

    rec.write().expect("write BENCH_models.json");
}
