//! The activation path between GEMMs, pinned byte for byte.
//!
//! Between two protected GEMMs an activation is written back (GEMM
//! output → NCHW transpose → fused ReLU → storage codes), possibly
//! pooled or interacted, and staged again as the next GEMM's A operand.
//! The library moves those bytes in blocks and slices — the write-back
//! from inside the engine's tasks, pooling a few planes to a team
//! member — and the old per-element formulations — one `(n, c_out,
//! pixel)` walk with a scalar `Dtype::encode` per element, one
//! bounds-tested tap loop per pooled output (both in `common`, which
//! `tests/differential.rs` checks every generated conv → pool against,
//! in every dtype, on every path, at every team width), one codec call
//! per interaction operand — are the oracles the slots a pass leaves
//! behind must equal exactly. Here: every conv geometry of the zoo's
//! stems and fire modules at widths divisible by neither 4 nor 8, batch
//! 1 and 2, ReLU on and off, all four storage dtypes, inputs seeded with
//! −0.0 and NaN; at sizes where the stages fan out, team widths 1, 2 and
//! 3 on every `GemmPath` the host runs; cells struck to −0.0, ±Inf and
//! NaN through the ReLU write-back; pools and the global average over
//! inputs dense in specials; and the interaction
//! (the `AIGA_FORCE_SCALAR=1` CI leg repeats all of it with the scalar
//! oracle and codecs ambient).
//! (The staged strips and checksum rows themselves are crate-private;
//! `crates/gpu/src/engine/tests.rs` pins them against the old
//! three-pass staging the same way.)
//!
//! It also pins that the cold readers still work off the strips: a
//! mid-walk and an epilogue fault aimed at the ragged last strip of a
//! conv must flag, and `Workspace::recompute` must repair them to the clean
//! bytes.

mod common;

use aiga::dtype::F16;
use aiga::gpu::engine::simd;
use aiga::nn::graph::{PoolKind, PoolParams};
use aiga::prelude::*;
use aiga::util::team;
use common::{assert_slots_hold_the_oracles, pool_oracle};

/// `(kernel, stride, padding)` of the conv under test: pointwise, the
/// fire modules' 3×3, a strided unpadded 3×3, SqueezeNet-1.0's stem.
const CONVS: [(usize, usize, usize); 4] = [(1, 1, 0), (3, 1, 1), (3, 2, 0), (7, 2, 3)];

/// The conv stage under test: input channels, output channels, input
/// `(height, width)`.
#[derive(Clone, Copy)]
struct Shape {
    channels: usize,
    c_out: usize,
    hw: (usize, usize),
}

/// Conv output widths 13/13/6/7 and pixel counts not divisible by 4, so
/// strips straddle rows and images; under the two strided convs the
/// ceil-mode pool's last window hangs past the plane's edge. Every
/// stage of it runs on the calling thread.
const SMALL: Shape = Shape {
    channels: 3,
    c_out: 5,
    hw: (11, 13),
};

/// The same path at a size that fans out: under the 3×3 conv a batch of
/// two is 338 GEMM rows × 200 columns over K = 72 — 10 MFLOP, so up to
/// three members take its 6 × 4 block tasks, the second image starts
/// inside the third stripe (row 169 of 128..192), and the last column
/// block is 8 wide — and the pool reads 67,600 elements, past the size
/// under which a pooling stage stays on its caller.
const WIDE: Shape = Shape {
    channels: 8,
    c_out: 200,
    hw: (13, 13),
};

/// conv → 3×3 stride-2 ceil-mode pool → 1×1 conv: stage 0 writes slot 0,
/// stage 1 slot 1, and the final conv reads slot 1 raw, so both slots
/// survive the pass.
fn net(
    shape: Shape,
    batch: usize,
    conv: (usize, usize, usize),
    relu: bool,
    kind: PoolKind,
    dt: Dtype,
) -> Network {
    let (h, w) = shape.hw;
    let mut b = NetworkBuilder::new("activation-path", batch, shape.channels, h, w, 17);
    b.conv("conv", shape.c_out, conv.0, conv.1, conv.2, relu);
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

/// The values a codec and a fold can get wrong: both zeros, both NaN
/// signs, both infinities (formats without one encode it as they always
/// have).
const SPECIALS: [f32; 6] = [
    -0.0,
    f32::NAN,
    -f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
];

/// `rows × features` on `dt`'s grid with every `every`-th value one of
/// [`SPECIALS`] in turn.
fn salted(rows: usize, features: usize, dt: Dtype, every: usize) -> Matrix {
    let mut m = Matrix::random_dtype(rows, features, 91, dt);
    for (i, at) in (5..m.data.len()).step_by(every).enumerate() {
        m.data[at] = F16::from_bits(dt.encode(SPECIALS[i % SPECIALS.len()]));
    }
    m
}

/// `codes` with every NaN made the same NaN. Which operand's sign a
/// `NaN + NaN` or `NaN · NaN` keeps is the instruction's operand order —
/// the compiler's choice, loop by loop and profile by profile, not the
/// source's — so where an oracle *computes* (an average, a dot product)
/// a NaN equals a NaN; that it is one, and where, is still pinned.
fn nan_blind(codes: &[F16], dt: Dtype) -> Vec<u16> {
    let code = |c: &F16| match dt.decode(c.to_bits()) {
        v if v.is_nan() => dt.encode(f32::NAN),
        _ => c.to_bits(),
    };
    codes.iter().map(code).collect()
}

/// A request for [`net`] on `dt`'s grid with −0.0 and both NaN signs
/// among the first plane's values (formats without a NaN encode it as
/// they always have).
fn request(shape: Shape, batch: usize, dt: Dtype) -> Matrix {
    let mut m = Matrix::random_dtype(batch, shape.channels * shape.hw.0 * shape.hw.1, 91, dt);
    for (i, v) in [-0.0f32, f32::NAN, -f32::NAN, -0.0].into_iter().enumerate() {
        let at = 5 + 37 * i;
        m.data[at] = F16::from_bits(dt.encode(v));
    }
    m
}

/// [`assert_slots_hold_the_oracles`] over [`net`] of `shape` under
/// `conv`, whose output pixel count must leave strips straddling images.
fn assert_straddling_slots_hold_the_oracles(
    (shape, conv): (Shape, (usize, usize, usize)),
    net: &Network,
    input: &Matrix,
    scheme: Scheme,
    fault: Option<FaultPlan>,
    what: &str,
) {
    let (k, s, p) = conv;
    let extent = |x: usize| (x + 2 * p - k) / s + 1;
    let spatial = extent(shape.hw.0) * extent(shape.hw.1);
    assert_ne!(spatial % 4, 0, "{what}: strips must straddle images");
    assert_slots_hold_the_oracles(net, input, scheme, fault, what);
}

#[test]
fn slots_hold_the_per_element_oracles_bytes() {
    for dt in Dtype::ALL {
        for conv in CONVS {
            for batch in [1usize, 2] {
                for (relu, kind) in [(true, PoolKind::Max), (false, PoolKind::Avg)] {
                    let what = format!("{dt} conv{conv:?} x{batch} relu={relu} {kind:?}");
                    let net = net(SMALL, batch, conv, relu, kind, dt);
                    let input = request(SMALL, batch, dt);
                    let scheme = Scheme::ThreadLevelOneSided;
                    assert_straddling_slots_hold_the_oracles(
                        (SMALL, conv),
                        &net,
                        &input,
                        scheme,
                        None,
                        &what,
                    );
                }
            }
        }
    }
}

#[test]
fn fanned_out_stages_hold_the_oracles_bytes_at_every_width_on_every_path() {
    // The write-back leaves from the engine's block tasks and the pool's
    // planes from team tasks: whoever runs which, on whichever path,
    // the slots are the per-element oracles'.
    for (dt, relu, kind) in [
        (Dtype::F16, true, PoolKind::Max),
        (Dtype::F16, false, PoolKind::Avg),
        (Dtype::Bf16, true, PoolKind::Avg),
        (Dtype::Int8, false, PoolKind::Max),
    ] {
        let net = net(WIDE, 2, CONVS[1], relu, kind, dt);
        let input = request(WIDE, 2, dt);
        simd::on_each_path(|path| {
            for width in [1usize, 2, 3] {
                let what = format!("{dt} relu={relu} {kind:?} {} width {width}", path.as_str());
                team::with_width(width, || {
                    assert_straddling_slots_hold_the_oracles(
                        (WIDE, CONVS[1]),
                        &net,
                        &input,
                        Scheme::ThreadLevelOneSided,
                        None,
                        &what,
                    )
                });
            }
        });
    }
}

#[test]
fn struck_cells_cross_the_relu_write_back_as_the_oracle_encodes_them() {
    // A GEMM never produces −0.0 by itself and rarely an infinity, so
    // they are struck into its output (unprotected: nothing flags, the
    // pass goes on): first cell, the last row of the first image and
    // the first of the second inside one stripe, the last cell of the
    // ragged last column block. The slot must hold what the per-element
    // walk encodes for `max(v, 0)` of each — NaN and −0.0 included —
    // whichever member's task emitted the block.
    let spatial = WIDE.hw.0 * WIDE.hw.1;
    let cells = [
        (0usize, 0usize),
        (spatial - 1, 63),
        (spatial, 64),
        (2 * spatial - 1, WIDE.c_out - 1),
    ];
    for relu in [true, false] {
        let net = net(WIDE, 2, CONVS[1], relu, PoolKind::Max, Dtype::F16);
        let input = request(WIDE, 2, Dtype::F16);
        for (i, value) in SPECIALS.into_iter().enumerate() {
            let (row, col) = cells[i % cells.len()];
            let fault = FaultPlan {
                row,
                col,
                after_step: u64::MAX,
                kind: FaultKind::SetValue(value),
            };
            for width in [1usize, 3] {
                let what = format!("relu={relu} {value} at ({row},{col}) width {width}");
                team::with_width(width, || {
                    assert_straddling_slots_hold_the_oracles(
                        (WIDE, CONVS[1]),
                        &net,
                        &input,
                        Scheme::Unprotected,
                        Some(fault),
                        &what,
                    )
                });
            }
        }
    }
}

#[test]
fn pools_fold_special_values_in_the_per_output_tap_order() {
    // The pool reads the request itself, every fifth value a special:
    // windows of only ±0.0, NaN first and NaN last, +Inf against −Inf.
    // `f32::max`'s NaN and −0.0 behaviour and the `(ky, kx)` fold order
    // are what make these bytes; a padded 3×3 stride-1 average and a
    // 2×2 max ride along, small (the caller's) and wide (the team's).
    for (planes, hw) in [(5usize, (11usize, 13usize)), (400, (13, 13))] {
        for (kind, kernel, stride, padding, ceil) in [
            (PoolKind::Max, 3usize, 2usize, 0usize, true),
            (PoolKind::Avg, 3, 2, 0, true),
            (PoolKind::Avg, 3, 1, 1, false),
            (PoolKind::Max, 2, 2, 0, false),
        ] {
            let p = PoolParams {
                kind,
                kernel,
                stride,
                padding,
                ceil,
            };
            for dt in Dtype::ALL {
                let mut b = NetworkBuilder::new("pool-first", 1, planes, hw.0, hw.1, 17);
                b.pool("pool", p);
                b.conv("tail", 2, 1, 1, 0, false);
                let net = b.build().with_dtype(dt);
                let input = salted(1, planes * hw.0 * hw.1, dt, 5);
                let want = pool_oracle(&input.data, planes, hw, &p, dt);
                let pipeline = ProtectedPipeline::compile(&net, &[Scheme::GlobalAbft]);
                for width in [1usize, 2, 3] {
                    let mut ws = Workspace::new();
                    team::with_width(width, || pipeline.infer_into(&input, None, &mut ws));
                    assert_eq!(
                        nan_blind(ws.slot(0).data, dt),
                        nan_blind(&want, dt),
                        "{dt} {planes} planes {kind:?} k{kernel} s{stride} p{padding} width {width}"
                    );
                }
            }
        }
    }
}

/// The old global average: one table decode per element summed in
/// plane order, one scalar encode per plane.
fn gap_oracle(input: &Matrix, spatial: usize, dt: Dtype) -> Vec<F16> {
    let plane = |plane: &[F16]| {
        let acc: f32 = plane.iter().map(|v| dt.decode(v.to_bits())).sum();
        F16::from_bits(dt.encode(acc / spatial as f32))
    };
    input.data.chunks_exact(spatial).map(plane).collect()
}

/// The global average's own fanned-out input: 200 channels of 13×13, a
/// batch of two — 400 planes, 67,600 elements.
const GAP_WIDE: Shape = Shape {
    channels: 200,
    c_out: 4,
    hw: (13, 13),
};

fn gap_net(shape: Shape, dt: Dtype) -> Network {
    let mut b = NetworkBuilder::new("gap", 2, shape.channels, shape.hw.0, shape.hw.1, 17);
    b.global_avg_pool("gap");
    b.fc("fc", shape.c_out, false);
    b.build().with_dtype(dt)
}

#[test]
fn global_average_matches_its_per_element_oracle() {
    // 6 planes on the caller; 400 across the team. Both NaN signs and −0.0 share the first plane: its bytes, the
    // NaN's sign included, are the in-order sum's.
    for (shape, widths) in [(SMALL, &[1usize][..]), (GAP_WIDE, &[1, 2, 3])] {
        for dt in Dtype::ALL {
            let input = request(shape, 2, dt);
            let pipeline = ProtectedPipeline::compile(&gap_net(shape, dt), &[Scheme::GlobalAbft]);
            let want = gap_oracle(&input, shape.hw.0 * shape.hw.1, dt);
            for &width in widths {
                let mut ws = Workspace::new();
                team::with_width(width, || pipeline.infer_into(&input, None, &mut ws));
                let channels = shape.channels;
                assert_eq!(
                    ws.slot(0).data,
                    want,
                    "{dt} {channels} channels width {width}"
                );
            }
        }
    }
}

#[test]
fn global_average_of_special_dense_planes_is_nan_where_its_oracle_is() {
    // Every fifth value a special: each plane sums NaNs of both signs
    // and +Inf with −Inf, so every average is a NaN whose sign is the
    // adder's operand order. That it is a NaN, plane by plane, is the
    // contract; which NaN is not.
    for dt in Dtype::ALL {
        let spatial = GAP_WIDE.hw.0 * GAP_WIDE.hw.1;
        let input = salted(2, GAP_WIDE.channels * spatial, dt, 5);
        let pipeline = ProtectedPipeline::compile(&gap_net(GAP_WIDE, dt), &[Scheme::GlobalAbft]);
        let want = gap_oracle(&input, spatial, dt);
        for width in [1usize, 3] {
            let mut ws = Workspace::new();
            team::with_width(width, || pipeline.infer_into(&input, None, &mut ws));
            assert_eq!(
                nan_blind(ws.slot(0).data, dt),
                nan_blind(&want, dt),
                "{dt} width {width}"
            );
        }
    }
}

/// The old interaction: the virtual concatenation searched and decoded
/// per operand, one scalar encode per dot product.
fn interact_oracle(request: &Matrix, vectors: usize, dim: usize, dt: Dtype) -> Vec<F16> {
    let mut out = Vec::new();
    for row in request.data.chunks_exact(vectors * dim) {
        out.extend_from_slice(&row[..dim]);
        let feat = |f: usize| dt.decode(row[f].to_bits());
        for vi in 0..vectors {
            for vj in vi + 1..vectors {
                let mut dot = 0.0f32;
                for x in 0..dim {
                    dot += feat(vi * dim + x) * feat(vj * dim + x);
                }
                out.push(F16::from_bits(dt.encode(dot)));
            }
        }
    }
    out
}

#[test]
fn interaction_matches_its_per_element_oracle() {
    // DLRM's shape — one bottom vector, the rest embeddings — read off
    // the request: 2 vectors (one pair), 9 (the serving mix), 27 (351
    // pairs, more than any one encode call used to see). Every seventh
    // value is a special, so products are NaN, ±Inf and ±0.0 too.
    let dim = 16;
    for vectors in [2usize, 9, 27] {
        for dt in Dtype::ALL {
            let mut b = NetworkBuilder::new("interact", 5, vectors * dim, 1, 1, 17);
            let input = b.cursor();
            let bottom = b.slice("bottom", input, 0, dim);
            let rest = b.slice("embeddings", input, dim, (vectors - 1) * dim);
            b.interact("interact", vec![bottom, rest]);
            b.fc("tail", 3, false);
            let net = b.build().with_dtype(dt);
            let request = salted(5, vectors * dim, dt, 7);
            let pipeline = ProtectedPipeline::compile(&net, &[Scheme::GlobalAbft]);
            let mut ws = Workspace::new();
            pipeline.infer_into(&request, None, &mut ws);
            pipeline.infer_into(&request, None, &mut ws);
            // The two slices take slots 0 and 1, the interaction 2.
            let want = interact_oracle(&request, vectors, dim, dt);
            assert_eq!(
                nan_blind(ws.slot(2).data, dt),
                nan_blind(&want, dt),
                "{dt} {vectors} vectors"
            );
        }
    }
}

#[test]
fn faults_on_the_ragged_last_strip_flag_and_repair_from_the_strips() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for conv in CONVS {
        let net = net(SMALL, 1, conv, true, PoolKind::Max, Dtype::F16);
        let (h, w) = SMALL.hw;
        let input = Matrix::random(1, SMALL.channels * h * w, 92);
        let (ho, wo) = (conv_out(h, conv), conv_out(w, conv));
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
                    col: SMALL.c_out - 1,
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
