//! Per-element oracles of the bytes that cross between two GEMMs, shared
//! by `activation_path.rs` and the differential harness: the old
//! formulations of a conv stage's write-back — one `(n, c_out, pixel)`
//! walk with a scalar `Dtype::encode` per element — and of pooling —
//! one bounds-tested tap loop per output — which the library's blocked,
//! fanned-out movers must reproduce exactly.

use aiga::dtype::F16;
use aiga::gpu::engine::{Im2colView, MatrixView};
use aiga::nn::conv::filters_to_matrix;
use aiga::nn::graph::{NodeOp, PoolKind, PoolParams};
use aiga::prelude::*;

/// The GEMM output of `net`'s first node, a conv over `input`, computed
/// apart from the pipeline: the lowered matrix materialized element by
/// element through `MatrixView::get`, times the stage's weight matrix,
/// through the same engine, struck by `faults`.
pub fn conv_gemm(net: &Network, input: &Matrix, faults: &[FaultPlan]) -> (Vec<f32>, Im2colView) {
    let NodeOp::Conv {
        params, weights, ..
    } = &net.nodes[0].op
    else {
        panic!("stage 0 is the conv");
    };
    let dt = net.dtype;
    let (c, h, w) = net.input_dims;
    let geom = params.im2col_view(c, h, w);
    let view = MatrixView::im2col_lowered(input.rows, geom, &input.data, dt);
    let lowered = Matrix::from_fn(view.rows, view.cols, |r, c| view.get(r, c)).with_dtype(dt);
    let w = filters_to_matrix(weights);
    let w = Matrix::from_fn(w.rows, w.cols, |r, c| {
        F16::from_bits(dt.encode(w.get(r, c).to_f32()))
    })
    .with_dtype(dt);
    let out = aiga::gpu::engine::gemm(&lowered, &w, TileScheme::NONE, faults);
    (out.c, geom)
}

/// The old write-back: one strided walk in NCHW order, one scalar
/// encode per element.
pub fn writeback_oracle(
    c: &[f32],
    images: usize,
    c_out: usize,
    spatial: usize,
    relu: bool,
    dt: Dtype,
) -> Vec<F16> {
    let mut slot = Vec::new();
    for n in 0..images {
        for co in 0..c_out {
            for s in 0..spatial {
                let v = c[(n * spatial + s) * c_out + co];
                // Spelled out: `v.max(0.0)` keeps −0.0 in a debug build
                // and gives +0.0 in a release one.
                let v = match relu {
                    true if v >= 0.0 => v,
                    true => 0.0,
                    false => v,
                };
                slot.push(F16::from_bits(dt.encode(v)));
            }
        }
    }
    slot
}

/// The old pooling stage: a bounds-tested, table-decoded tap loop per
/// output.
pub fn pool_oracle(
    src: &[F16],
    planes: usize,
    (h, w): (usize, usize),
    p: &PoolParams,
    dt: Dtype,
) -> Vec<F16> {
    let (ho, wo) = (p.out_extent(h), p.out_extent(w));
    let mut out = Vec::new();
    for plane in src.chunks_exact(h * w).take(planes) {
        for oy in 0..ho {
            for ox in 0..wo {
                let (mut best, mut acc, mut cells) = (f32::NEG_INFINITY, 0.0f32, 0u32);
                for ky in 0..p.kernel {
                    for kx in 0..p.kernel {
                        let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                        let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                        if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                            continue;
                        }
                        let v = dt.decode(plane[iy as usize * w + ix as usize].to_bits());
                        best = best.max(v);
                        acc += v;
                        cells += 1;
                    }
                }
                let v = match p.kind {
                    _ if cells == 0 => 0.0,
                    PoolKind::Max => best,
                    PoolKind::Avg => acc / cells as f32,
                };
                out.push(F16::from_bits(dt.encode(v)));
            }
        }
    }
    out
}

/// Runs `net` — a conv, a pool, then a stage that reads the pool's slot
/// last, so both slots survive the pass — twice through one workspace
/// (the second pass writes every slot by index over the first pass's
/// bytes) under `scheme`, and requires slot 0 to hold the write-back
/// oracle's bytes of the conv's GEMM output — struck by `fault`, if any
/// — and slot 1 the pooling oracle's.
pub fn assert_slots_hold_the_oracles(
    net: &Network,
    input: &Matrix,
    scheme: Scheme,
    fault: Option<FaultPlan>,
    what: &str,
) {
    let (NodeOp::Conv { params, relu, .. }, NodeOp::Pool(p)) = (&net.nodes[0].op, &net.nodes[1].op)
    else {
        panic!("{what}: the net opens with a conv and a pool");
    };
    let dt = net.dtype;
    let pipeline = ProtectedPipeline::compile(net, &vec![scheme; net.gemm_count()]);
    let fault = fault.map(|fault| PipelineFault { layer: 0, fault });
    let mut ws = Workspace::new();
    pipeline.infer_into(input, fault, &mut ws);
    pipeline.infer_into(input, fault, &mut ws);

    let struck: Vec<FaultPlan> = fault.iter().map(|f| f.fault).collect();
    let (c, geom) = conv_gemm(net, input, &struck);
    let spatial = geom.out_h * geom.out_w;
    let want = writeback_oracle(&c, input.rows, params.c_out, spatial, *relu, dt);
    assert_eq!(ws.slot(0).data, want, "{what}: write-back");

    let planes = input.rows * params.c_out;
    let pooled = pool_oracle(&want, planes, (geom.out_h, geom.out_w), p, dt);
    assert_eq!(ws.slot(1).data, pooled, "{what}: pooled");
}
