//! The activation path between GEMMs, pinned byte for byte.
//!
//! Between two protected GEMMs an activation is written back (GEMM
//! output → NCHW transpose → fused ReLU → storage codes), possibly
//! pooled, and staged again as the next GEMM's A operand. The library
//! moves those bytes in blocks and slices; this file keeps the old
//! per-element formulations — one `(n, c_out, pixel)` walk with a scalar
//! `Dtype::encode` per element, one bounds-tested tap loop per pooled
//! output — as oracles, and requires the slots a pass leaves behind to
//! equal them exactly: every conv geometry of the zoo's stems and fire
//! modules at widths divisible by neither 4 nor 8, batch 1 and 2, ReLU
//! on and off, all four storage dtypes, inputs seeded with −0.0 and NaN.
//! (The staged strips and checksum rows themselves are crate-private;
//! `crates/gpu/src/engine/tests.rs` pins them against the old
//! three-pass staging the same way.)
//!
//! It also pins that the cold readers still work off the strips: a
//! mid-walk and an epilogue fault aimed at the ragged last strip of a
//! conv must flag, and `recompute_strip` must repair them to the clean
//! bytes.

use aiga::dtype::F16;
use aiga::gpu::engine::{Im2colView, MatrixView};
use aiga::nn::conv::filters_to_matrix;
use aiga::nn::graph::{NodeOp, PoolKind, PoolParams};
use aiga::prelude::*;

/// `(kernel, stride, padding)` of the conv under test: pointwise, the
/// fire modules' 3×3, a strided unpadded 3×3, SqueezeNet-1.0's stem.
const CONVS: [(usize, usize, usize); 4] = [(1, 1, 0), (3, 1, 1), (3, 2, 0), (7, 2, 3)];
const CHANNELS: usize = 3;
const C_OUT: usize = 5;
/// Input `(height, width)`: conv output widths 13/13/6/7 and pixel
/// counts not divisible by 4, so strips straddle rows and images; under
/// the two strided convs the ceil-mode pool's last window hangs past
/// the plane's edge.
const HW: (usize, usize) = (11, 13);

/// conv → 3×3 stride-2 ceil-mode pool → 1×1 conv: stage 0 writes slot 0,
/// stage 1 slot 1, and the final conv reads slot 1 raw, so both slots
/// survive the pass.
fn net(
    batch: usize,
    conv: (usize, usize, usize),
    relu: bool,
    kind: PoolKind,
    dt: Dtype,
) -> Network {
    let mut b = NetworkBuilder::new("activation-path", batch, CHANNELS, HW.0, HW.1, 17);
    b.conv("conv", C_OUT, conv.0, conv.1, conv.2, relu);
    b.pool("pool", pool_params(kind));
    b.conv("tail", 2, 1, 1, 0, false);
    b.build().with_dtype(dt)
}

fn pool_params(kind: PoolKind) -> PoolParams {
    PoolParams {
        kind,
        kernel: 3,
        stride: 2,
        padding: 0,
        ceil: true,
    }
}

/// A request on `dt`'s grid with −0.0 and both NaN signs among its
/// values (formats without a NaN encode it as they always have).
fn request(batch: usize, dt: Dtype) -> Matrix {
    let mut m = Matrix::random_dtype(batch, CHANNELS * HW.0 * HW.1, 91, dt);
    for (i, v) in [-0.0f32, f32::NAN, -f32::NAN, -0.0].into_iter().enumerate() {
        let at = 5 + 37 * i;
        m.data[at] = F16::from_bits(dt.encode(v));
    }
    m
}

/// The conv stage's GEMM output, computed apart from the pipeline: the
/// lowered matrix materialized element by element through
/// `MatrixView::get`, times the stage's weight matrix, through the same
/// engine (fused ≡ materialized is `fused_conv_equivalence.rs`'s pin).
fn conv_gemm(net: &Network, input: &Matrix) -> (Vec<f32>, Im2colView) {
    let NodeOp::Conv {
        params, weights, ..
    } = &net.nodes[0].op
    else {
        panic!("stage 0 is the conv");
    };
    let dt = net.dtype;
    let geom = params.im2col_view(CHANNELS, HW.0, HW.1);
    let view = MatrixView::im2col_lowered(net.batch, geom, &input.data, dt);
    let lowered = Matrix::from_fn(view.rows, view.cols, |r, c| view.get(r, c)).with_dtype(dt);
    let w = filters_to_matrix(weights);
    let w = Matrix::from_fn(w.rows, w.cols, |r, c| {
        F16::from_bits(dt.encode(w.get(r, c).to_f32()))
    })
    .with_dtype(dt);
    let out = aiga::gpu::engine::gemm(&lowered, &w, TileScheme::NONE, &[]);
    (out.c, geom)
}

/// The old write-back: one strided walk in NCHW order, one scalar
/// encode per element.
fn writeback_oracle(c: &[f32], images: usize, spatial: usize, relu: bool, dt: Dtype) -> Vec<F16> {
    let mut slot = Vec::new();
    for n in 0..images {
        for co in 0..C_OUT {
            for s in 0..spatial {
                let v = c[(n * spatial + s) * C_OUT + co];
                let v = if relu { v.max(0.0) } else { v };
                slot.push(F16::from_bits(dt.encode(v)));
            }
        }
    }
    slot
}

/// The old pooling stage: a bounds-tested, table-decoded tap loop per
/// output.
fn pool_oracle(
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

#[test]
fn slots_hold_the_per_element_oracles_bytes() {
    for dt in Dtype::ALL {
        for conv in CONVS {
            for batch in [1usize, 2] {
                for (relu, kind) in [(true, PoolKind::Max), (false, PoolKind::Avg)] {
                    let what = format!("{dt} conv{conv:?} x{batch} relu={relu} {kind:?}");
                    let net = net(batch, conv, relu, kind, dt);
                    let input = request(batch, dt);
                    let schemes = vec![Scheme::ThreadLevelOneSided; net.gemm_count()];
                    let pipeline = ProtectedPipeline::compile(&net, &schemes);
                    let mut ws = Workspace::new();
                    // Twice through one workspace: the second pass writes
                    // every slot by index over the first pass's bytes.
                    pipeline.infer_into(&input, None, &mut ws);
                    pipeline.infer_into(&input, None, &mut ws);

                    let (c, geom) = conv_gemm(&net, &input);
                    let spatial = geom.out_h * geom.out_w;
                    assert_ne!(spatial % 4, 0, "{what}: strips must straddle images");
                    let want = writeback_oracle(&c, batch, spatial, relu, dt);
                    assert_eq!(ws.slot(0).data, want, "{what}: write-back");

                    let p = pool_params(kind);
                    let pooled =
                        pool_oracle(&want, batch * C_OUT, (geom.out_h, geom.out_w), &p, dt);
                    assert_eq!(ws.slot(1).data, pooled, "{what}: pooled");
                }
            }
        }
    }
}

#[test]
fn global_average_matches_its_per_element_oracle() {
    for dt in Dtype::ALL {
        let mut b = NetworkBuilder::new("gap", 2, CHANNELS, HW.0, HW.1, 17);
        b.global_avg_pool("gap");
        b.fc("fc", 4, false);
        let net = b.build().with_dtype(dt);
        let input = request(2, dt);
        let pipeline = ProtectedPipeline::compile(&net, &[Scheme::GlobalAbft]);
        let mut ws = Workspace::new();
        pipeline.infer_into(&input, None, &mut ws);
        let want: Vec<F16> = input
            .data
            .chunks_exact(HW.0 * HW.1)
            .map(|plane| {
                let acc: f32 = plane.iter().map(|v| dt.decode(v.to_bits())).sum();
                F16::from_bits(dt.encode(acc / (HW.0 * HW.1) as f32))
            })
            .collect();
        assert_eq!(ws.slot(0).data, want, "{dt}");
    }
}

#[test]
fn faults_on_the_ragged_last_strip_flag_and_repair_from_the_strips() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for conv in CONVS {
        let net = net(1, conv, true, PoolKind::Max, Dtype::F16);
        let input = Matrix::random(1, CHANNELS * HW.0 * HW.1, 92);
        let (ho, wo) = (conv_out(HW.0, conv), conv_out(HW.1, conv));
        // The last output pixel: in the final strip, whose other rows
        // are padding.
        let row = ho * wo - 1;
        assert_ne!(
            (row + 1) % 4,
            0,
            "conv{conv:?}: the last strip must be ragged"
        );
        let schemes = vec![Scheme::ThreadLevelOneSided; net.gemm_count()];
        let detect = ProtectedPipeline::compile(&net, &schemes);
        let repair = ProtectedPipeline::compile(&net, &schemes).with_recovery(true);
        let clean = detect.infer(&input, None);
        assert!(!clean.fault_detected(), "conv{conv:?}");
        // Mid-walk (the cold walk replays the strip lane up to the
        // faulted K-step) and epilogue.
        for after_step in [1, u64::MAX] {
            let fault = PipelineFault {
                layer: 0,
                fault: FaultPlan {
                    row,
                    col: C_OUT - 1,
                    after_step,
                    kind: FaultKind::AddValue(500.0),
                },
            };
            let what = format!("conv{conv:?} after_step={after_step}");
            let flagged = detect.infer(&input, Some(fault));
            assert!(flagged.fault_detected(), "{what}");
            assert_eq!(flagged.detections[0].layer, 0, "{what}");
            let repaired = repair.infer(&input, Some(fault));
            assert!(
                repaired.fault_corrected() && !repaired.fault_detected(),
                "{what}"
            );
            assert_eq!(bits(&repaired.output), bits(&clean.output), "{what}");
        }
    }
}

fn conv_out(extent: usize, (kernel, stride, padding): (usize, usize, usize)) -> usize {
    (extent + 2 * padding - kernel) / stride + 1
}
