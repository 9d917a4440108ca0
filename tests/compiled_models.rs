//! End-to-end tests for the model-compilation path
//! (`Model → ModelPlan → CompiledModel`): executable zoo networks with
//! real FP16 weights, convolutions lowered through workspace-threaded
//! im2col onto the protected GEMM engine, served through `Session` and
//! the concurrent `Server`.
//!
//! The correctness oracle is `Network::reference_f64`, which mirrors
//! the executor's FP16 quantization points exactly and differs only in
//! accumulating GEMMs in f64 instead of the engine's f32 — so "matches
//! within FP16 tolerance" is a tight assertion, not a hand-wave.

use aiga::prelude::*;
use aiga_nn::graph::NetworkBuilder;
use std::time::Duration;

/// |got − want| ≤ atol + rtol·|want|, element-wise.
fn assert_close(got: &[f32], want: &[f64], atol: f64, rtol: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let err = (g as f64 - w).abs();
        assert!(
            err <= atol + rtol * w.abs(),
            "{what}: elem {i}: got {g}, want {w} (err {err:.3e})"
        );
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A single-conv network over `c_in × 13 × 11` inputs.
fn single_conv(
    batch: usize,
    c_in: usize,
    c_out: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Network {
    let mut b = NetworkBuilder::new(
        format!("conv-k{kernel}s{stride}p{padding}"),
        batch,
        c_in,
        13,
        11,
        90 + kernel as u64,
    );
    b.conv("conv", c_out, kernel, stride, padding, false);
    b.build()
}

#[test]
fn compiled_conv_layers_match_the_reference_across_zoo_shapes() {
    // Kernel/stride/padding shapes drawn from the zoo: SqueezeNet's 7×7
    // stem, ResNet's strided 3×3, 1×1 squeeze/expand convs, AlexNet's
    // 11×11 stride-4 stem, and a depthwise-ish single-input-channel
    // edge case.
    let cases: [(usize, usize, usize, usize, usize); 6] = [
        (3, 8, 7, 2, 0),  // SqueezeNet features.0
        (4, 6, 3, 2, 1),  // ResNet conv2, stage entry
        (5, 9, 1, 1, 0),  // 1×1 squeeze/expand/projection
        (3, 4, 11, 4, 2), // AlexNet features.0
        (1, 5, 3, 1, 1),  // depthwise-ish: one input channel
        (2, 4, 5, 2, 2),  // generic 5×5
    ];
    for (c_in, c_out, kernel, stride, padding) in cases {
        let net = single_conv(2, c_in, c_out, kernel, stride, padding);
        let compiled = Planner::new(DeviceSpec::t4()).compile(&net);
        let input = Matrix::random(2, net.input_features(), 7 * kernel as u64 + stride as u64);
        let report = compiled.infer(&input, None);
        assert!(!report.fault_detected(), "{}", net.name);
        let want = net.reference_f64(&input);
        assert_close(&report.output, &want, 2e-2, 2e-2, &net.name);
    }
}

#[test]
fn conv_faults_are_detected_under_every_scheme() {
    // End-to-end fault detection on a conv layer: the fault lands in
    // the lowered GEMM's output (row = output position, col = channel)
    // and every protected scheme must flag it; the unprotected baseline
    // must not.
    let net = single_conv(2, 3, 8, 3, 1, 1);
    let fault = PipelineFault {
        layer: 0,
        fault: FaultPlan {
            row: 17,
            col: 5,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(500.0),
        },
    };
    for scheme in Scheme::all_protected() {
        let p = aiga_core::ProtectedPipeline::compile(&net, &[scheme]);
        let clean = p.infer(&Matrix::random(2, net.input_features(), 31), None);
        assert!(!clean.fault_detected(), "{scheme}: false positive");
        let dirty = p.infer(&Matrix::random(2, net.input_features(), 31), Some(fault));
        assert!(dirty.fault_detected(), "{scheme}: missed conv fault");
        assert_eq!(dirty.detections[0].layer, 0);
        assert_eq!(dirty.detections[0].scheme, scheme);
    }
    let unprot = aiga_core::ProtectedPipeline::compile(&net, &[Scheme::Unprotected]);
    let dirty = unprot.infer(&Matrix::random(2, net.input_features(), 31), Some(fault));
    assert!(!dirty.fault_detected(), "unprotected must stay silent");
}

#[test]
fn a_conv_fault_lands_at_its_documented_feature_map_coordinates() {
    // `PipelineFault` addresses a conv's lowered GEMM output: row
    // (n·Ho + oy)·Wo + ox, column c. Through an unprotected pipeline the
    // struck accumulator is exactly the reply's NCHW activation
    // (n, c, oy, ox); global and one-sided ABFT flag the same fault.
    let (c_out, ho, wo) = (8, 16, 16);
    let mut b = NetworkBuilder::new("conv-16x16", 2, 3, 16, 16, 32);
    b.conv("conv", c_out, 3, 1, 1, false);
    let net = b.build();
    let input = Matrix::random(2, net.input_features(), 31);
    let unprotected = ProtectedPipeline::compile(&net, &[Scheme::Unprotected]);
    let clean = unprotected.infer(&input, None);
    let (c, oy, ox) = (5, 9, 12);
    for n in [0, 1] {
        let fault = PipelineFault {
            layer: 0,
            fault: FaultPlan {
                row: (n * ho + oy) * wo + ox,
                col: c,
                after_step: 3,
                kind: FaultKind::AddValue(80.0),
            },
        };
        let dirty = unprotected.infer(&input, Some(fault));
        assert!(!dirty.fault_detected());
        let (clean, dirty) = (bits(&clean.output), bits(&dirty.output));
        let struck: Vec<usize> = (0..clean.len()).filter(|&i| clean[i] != dirty[i]).collect();
        assert_eq!(struck, [((n * c_out + c) * ho + oy) * wo + ox], "n = {n}");
        for scheme in [Scheme::GlobalAbft, Scheme::ThreadLevelOneSided] {
            let p = ProtectedPipeline::compile(&net, &[scheme]);
            let report = p.infer(&input, Some(fault));
            assert!(report.fault_detected(), "{scheme} missed it at n = {n}");
        }
    }
}

#[test]
fn squeezenet_serves_end_to_end_matching_the_reference() {
    // Full executable SqueezeNet (stem + 8 Fire modules + conv
    // classifier + GAP) at a trimmed 32×32 resolution, through the
    // session's bucket dispatch.
    let session = Session::builder_network(Planner::new(DeviceSpec::t4()), "squeezenet", |b| {
        zoo::squeezenet_net(b, 32, 32, 7)
    })
    .buckets([4])
    .build();
    let net = zoo::squeezenet_net(4, 32, 32, 7);
    assert_eq!(net.gemm_count(), 26);

    // A partial batch: three images run as three images.
    let input = Matrix::random(3, net.input_features(), 123);
    let reply = session.serve(&input).unwrap();
    assert_eq!(reply.bucket, 4);
    assert_eq!(reply.rows, 3);
    assert_eq!(reply.report.output.len(), 3 * 1000);
    assert!(!reply.report.fault_detected());
    assert_eq!(reply.schemes.len(), 26);

    let want = net.reference_f64(&input);
    // 26 layers deep: f32-vs-f64 accumulation and straddled FP16
    // roundings compound, so the tolerance is wider than single-layer
    // but still FP16-scale.
    assert_close(&reply.report.output, &want, 4e-2, 4e-2, "SqueezeNet");

    // The per-layer plan really mixes decisions on real conv shapes.
    let plan = session.plan_for_bucket(4);
    assert_eq!(plan.layers.len(), 26);
    assert_eq!(reply.schemes[..], plan.chosen_schemes()[..]);
}

/// A DLRM request matrix: 13 random dense features followed by exact
/// integer categorical indices (representable losslessly in fp16).
fn dlrm_input(batch: usize, tables: usize, rows_per_table: usize, seed: u64) -> Matrix {
    dlrm_input_dtype(batch, tables, rows_per_table, seed, Dtype::F16)
}

/// [`dlrm_input`] in `dtype`'s codes (a narrow format rounds or
/// saturates the indices; the executor clamps them into the table).
fn dlrm_input_dtype(
    batch: usize,
    tables: usize,
    rows_per_table: usize,
    seed: u64,
    dtype: Dtype,
) -> Matrix {
    let mut input = Matrix::random_dtype(batch, 13 + tables, seed, dtype);
    for (r, c) in (0..batch).flat_map(|r| (13..13 + tables).map(move |c| (r, c))) {
        let index = ((r * 31 + c * 17) % rows_per_table) as f32;
        input.set(r, c, aiga_dtype::F16::from_bits(dtype.encode(index)));
    }
    input
}

#[test]
fn dlrm_net_matches_the_reference_end_to_end() {
    // The full DLRM graph: slice → MLP-Bottom, slice → embedding bags,
    // pairwise interaction, MLP-Top. The non-GEMM ops (slice, gather,
    // interaction) run as epilogue stages and must track the f64
    // reference through both MLPs.
    let net = zoo::dlrm_net(3, 4, 50, 16, 11);
    let p = aiga_core::ProtectedPipeline::compile(&net, &[Scheme::GlobalAbft; 6]);
    let input = dlrm_input(3, 4, 50, 201);
    let r = p.infer(&input, None);
    assert!(!r.fault_detected());
    assert_eq!(r.output.len(), 3);
    let want = net.reference_f64(&input);
    assert_close(&r.output, &want, 2e-2, 2e-2, "DLRM");
}

#[test]
fn dlrm_faults_are_detected_at_every_layer_under_every_scheme() {
    // Detection coverage through the branch-and-merge DLRM graph: a
    // fault aimed at each of the six GEMMs (both MLPs) must surface at
    // that layer under every protected scheme, even with the slice /
    // embedding / interaction epilogues between them.
    let net = zoo::dlrm_net(2, 4, 50, 16, 13);
    let input = dlrm_input(2, 4, 50, 77);
    for scheme in Scheme::all_protected() {
        let p = aiga_core::ProtectedPipeline::compile(&net, &[scheme; 6]);
        for layer in 0..6 {
            let fault = PipelineFault {
                layer,
                fault: FaultPlan {
                    row: 0,
                    col: 0,
                    after_step: u64::MAX,
                    kind: FaultKind::AddValue(500.0),
                },
            };
            let dirty = p.infer(&input, Some(fault));
            assert!(dirty.fault_detected(), "{scheme}: missed fault at {layer}");
            assert_eq!(dirty.detections[0].layer, layer, "{scheme}");
        }
    }
}

#[test]
fn squeezenet_v11_matches_the_reference_end_to_end() {
    // SqueezeNet 1.1's early-pool topology at a trimmed 48×48: the
    // stem's 3×3 stride-2 conv and all three ceil-mode pools land at
    // distinct spatial extents (23 → 11 → 5 → 2).
    let net = zoo::squeezenet_v11_net(2, 48, 48, 9);
    assert_eq!(net.gemm_count(), 26);
    let p = aiga_core::ProtectedPipeline::compile(&net, &[Scheme::ThreadLevelOneSided; 26]);
    let input = Matrix::random(2, net.input_features(), 55);
    let r = p.infer(&input, None);
    assert!(!r.fault_detected());
    let want = net.reference_f64(&input);
    assert_close(&r.output, &want, 4e-2, 4e-2, "SqueezeNet-1.1");
}

#[test]
fn squeezenet_v11_faults_are_detected_per_scheme_family() {
    // One scheme per family, faults aimed at the stem, a mid-net fire
    // expand (inside a branch-parallel-eligible level), and the
    // classifier conv.
    let net = zoo::squeezenet_v11_net(1, 48, 48, 9);
    let input = Matrix::random(1, net.input_features(), 56);
    for scheme in [
        Scheme::GlobalAbft,
        Scheme::ThreadLevelOneSided,
        Scheme::ThreadLevelTwoSided,
        Scheme::MultiChecksum(2),
    ] {
        let p = aiga_core::ProtectedPipeline::compile(&net, &[scheme; 26]);
        for layer in [0usize, 13, 25] {
            let fault = PipelineFault {
                layer,
                fault: FaultPlan {
                    row: 0,
                    col: 0,
                    after_step: u64::MAX,
                    kind: FaultKind::AddValue(400.0),
                },
            };
            let dirty = p.infer(&input, Some(fault));
            assert!(dirty.fault_detected(), "{scheme}: missed fault at {layer}");
            assert_eq!(dirty.detections[0].layer, layer, "{scheme}");
        }
    }
}

#[test]
fn vgg11_matches_the_reference_end_to_end() {
    // VGG-11 at 32×32: eight convs pool down to 1×1 before the
    // 4096-wide classifier chain — the deepest fc stack in the zoo.
    let net = zoo::vgg11_net(1, 32, 32, 21);
    assert_eq!(net.gemm_count(), 11);
    let p = aiga_core::ProtectedPipeline::compile(&net, &[Scheme::GlobalAbft; 11]);
    let input = Matrix::random(1, net.input_features(), 99);
    let r = p.infer(&input, None);
    assert!(!r.fault_detected());
    let want = net.reference_f64(&input);
    assert_close(&r.output, &want, 4e-2, 4e-2, "VGG-11");
}

#[test]
fn vgg11_faults_are_detected_in_conv_and_fc_layers() {
    let net = zoo::vgg11_net(1, 32, 32, 21);
    let input = Matrix::random(1, net.input_features(), 98);
    for scheme in [Scheme::ThreadLevelOneSided, Scheme::MultiChecksum(2)] {
        let p = aiga_core::ProtectedPipeline::compile(&net, &[scheme; 11]);
        for layer in [3usize, 9] {
            // a mid conv and a 4096-wide fc
            let fault = PipelineFault {
                layer,
                fault: FaultPlan {
                    row: 0,
                    col: 1,
                    after_step: u64::MAX,
                    kind: FaultKind::AddValue(400.0),
                },
            };
            let dirty = p.infer(&input, Some(fault));
            assert!(dirty.fault_detected(), "{scheme}: missed fault at {layer}");
            assert_eq!(dirty.detections[0].layer, layer, "{scheme}");
        }
    }
}

#[test]
fn resnet_block_serves_end_to_end_matching_the_reference() {
    let session = Session::builder_network(Planner::new(DeviceSpec::t4()), "resnet-block", |b| {
        zoo::resnet_block_net(b, 16, 16, 11)
    })
    .buckets([2, 4])
    .build();
    let net = zoo::resnet_block_net(4, 16, 16, 11);
    let input = Matrix::random(4, net.input_features(), 321);
    let reply = session.serve(&input).unwrap();
    assert_eq!(reply.bucket, 4);
    assert_eq!(reply.report.output.len(), 4 * 10);
    let want = net.reference_f64(&input);
    assert_close(&reply.report.output, &want, 2e-2, 2e-2, "ResNet block");

    // Detection survives the full conv → residual-add → fc graph: aim a
    // fault at the strided 3×3 (layer index 1 in plan order).
    let fault = PipelineFault {
        layer: 1,
        fault: FaultPlan {
            row: 9,
            col: 3,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(300.0),
        },
    };
    let dirty = session.serve_with_fault(&input, Some(fault)).unwrap();
    assert!(dirty.report.fault_detected());
    assert_eq!(dirty.report.detections[0].name, "block.conv2");
    assert_eq!(session.stats().faulty_requests, 1);
}

#[test]
fn oversized_compiled_requests_split_like_mlp_ones() {
    let session = Session::builder_network(Planner::new(DeviceSpec::t4()), "resnet-block", |b| {
        zoo::resnet_block_net(b, 8, 8, 5)
    })
    .buckets([2])
    .build();
    let features = 16 * 8 * 8;
    let big = Matrix::random(5, features, 77);
    let r = session.serve(&big).unwrap();
    assert_eq!(r.rows, 5);
    assert_eq!(r.report.output.len(), 5 * 10);
    assert_eq!(session.stats().split_requests, 1);
    // Each chunk equals serving it alone (per-image independence).
    for (start, rows) in [(0usize, 2usize), (2, 2), (4, 1)] {
        let chunk = big.row_block(start, rows);
        let rc = session.serve(&chunk).unwrap();
        assert_eq!(
            bits(&rc.report.output),
            bits(&r.report.output[start * 10..(start + rows) * 10]),
            "chunk at {start}"
        );
    }
}

#[test]
fn coalesced_compiled_serving_is_byte_identical_to_solo() {
    // Concurrent clients over a compiled ResNet block: whatever batches
    // the dynamic batcher forms, reply bytes must equal a direct
    // single-caller serve of the same request.
    let make_session = || {
        Session::builder_network(Planner::new(DeviceSpec::t4()), "resnet-block", |b| {
            zoo::resnet_block_net(b, 8, 8, 9)
        })
        .buckets([4])
        .build()
    };
    let server = Server::builder(make_session())
        .workers(2)
        .queue_capacity(32)
        .coalesce_window(Duration::from_micros(300))
        .build();
    let reference = make_session();
    let features = 16 * 8 * 8;

    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 3;
    let replies: Vec<(Matrix, ServeReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = server.client();
                scope.spawn(move || {
                    (0..PER_CLIENT)
                        .map(|i| {
                            let rows = 1 + (c + i) % 2;
                            let input =
                                Matrix::random(rows, features, 500 + (c * PER_CLIENT + i) as u64);
                            let reply = client.submit(&input).unwrap().wait().unwrap();
                            (input, reply)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    for (input, reply) in &replies {
        assert_eq!(reply.rows, input.rows);
        let direct = reference.serve(input).unwrap();
        assert_eq!(
            bits(&reply.report.output),
            bits(&direct.report.output),
            "coalesced compiled reply diverged from solo serve"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.failed + stats.rejected, 0);
}

/// `req` followed by zero rows up to `rows` — the request a padding
/// pipeline would have run.
fn zero_extended(req: &Matrix, rows: usize) -> Matrix {
    let mut full = req.clone();
    full.rows = rows;
    full.data.resize(rows * req.cols, aiga_dtype::F16::ZERO);
    full
}

/// conv → max pool → conv → residual add → GAP → fc: every stage kind a
/// conv net moves images through.
fn pool_add_net(batch: usize) -> Network {
    let mut b = NetworkBuilder::new("pool-add", batch, 3, 8, 8, 23);
    b.conv("c1", 4, 3, 1, 1, true);
    let pooled = b.max_pool("p1", 2, 2, 0);
    let c2 = b.conv("c2", 4, 3, 1, 1, false);
    b.add("add", c2, pooled, true);
    b.global_avg_pool("gap");
    b.fc("fc", 5, false);
    b.build()
}

#[test]
fn a_request_runs_as_its_own_rows_with_the_full_bucket_bytes() {
    // A partial request's reply is the first `rows` rows of the same
    // request zero-extended to the whole bucket (rows are independent:
    // one in-order FMA chain per output), and a fault on a live row is
    // flagged — or, in recovery mode, repaired — at the same layer
    // either way. One scheme per family, every dtype, every stage kind.
    let schemes = [
        Scheme::Unprotected,
        Scheme::ThreadLevelOneSided,
        Scheme::ThreadLevelTwoSided,
        Scheme::GlobalAbft,
        Scheme::ReplicationSingleAcc,
    ];
    for dtype in Dtype::ALL {
        let dlrm = zoo::dlrm_net(8, 4, 50, 16, 11).with_dtype(dtype);
        let conv = pool_add_net(2).with_dtype(dtype);
        let cases = [(&dlrm, &[0usize, 1, 3, 5, 8][..]), (&conv, &[1, 2][..])];
        for (net, row_counts) in cases {
            let layers = net.gemm_count();
            for scheme in schemes {
                let compile = || aiga_core::ProtectedPipeline::compile(net, &vec![scheme; layers]);
                let (detect, repair) = (compile(), compile().with_recovery(true));
                for &rows in row_counts {
                    let ctx = format!("{} {dtype} {scheme} rows {rows}", net.name);
                    let req = if net.name == "DLRM" {
                        dlrm_input_dtype(rows, 4, 50, 300 + rows as u64, dtype)
                    } else {
                        Matrix::random_dtype(rows, net.input_features(), 300 + rows as u64, dtype)
                    };
                    let full = zero_extended(&req, net.batch);
                    let out = net.output_features();
                    let clean = detect.infer(&req, None);
                    assert!(!clean.fault_detected(), "{ctx}: {:?}", clean.detections);
                    assert_eq!(
                        bits(&clean.output),
                        bits(&detect.infer(&full, None).output[..rows * out]),
                        "{ctx}"
                    );
                    if rows == 0 {
                        continue;
                    }
                    // The request's first and last row (a lone live row
                    // in its strip when rows ≡ 1 mod 4).
                    for (layer, row) in [(0, 0), (layers - 1, rows - 1)] {
                        let fault = Some(PipelineFault {
                            layer,
                            fault: FaultPlan {
                                row,
                                col: 0,
                                after_step: u64::MAX,
                                kind: FaultKind::AddValue(500.0),
                            },
                        });
                        let (own, whole) = (detect.infer(&req, fault), detect.infer(&full, fault));
                        let flagged = |r: &InferenceReport| {
                            r.detections.iter().map(|d| d.layer).collect::<Vec<_>>()
                        };
                        let want = if scheme == Scheme::Unprotected {
                            vec![]
                        } else {
                            vec![layer]
                        };
                        assert_eq!(flagged(&own), want, "{ctx} layer {layer}");
                        assert_eq!(flagged(&whole), want, "{ctx} layer {layer}");
                        assert_eq!(
                            bits(&own.output),
                            bits(&whole.output[..rows * out]),
                            "{ctx} layer {layer}: faulted bytes"
                        );
                        if scheme == Scheme::Unprotected {
                            continue;
                        }
                        let (own, whole) = (repair.infer(&req, fault), repair.infer(&full, fault));
                        for r in [&own, &whole] {
                            assert!(!r.fault_detected(), "{ctx} layer {layer}");
                            assert_eq!(r.corrections.len(), 1, "{ctx} layer {layer}");
                            assert_eq!(r.corrections[0].layer, layer, "{ctx}");
                        }
                        assert_eq!(bits(&own.output), bits(&clean.output), "{ctx} repaired");
                    }
                }
            }
        }
    }
}

#[test]
fn a_fault_past_the_requests_last_row_strikes_nothing() {
    // A 3-row request through a bucket-8 instance executes rows 0..3: a
    // fault aimed at row 5 has no accumulator to strike, under every
    // scheme family, through the compiled model and through the session
    // (the engine's own pin is
    // `a_batch_one_fault_is_repaired_and_padding_faults_are_no_ops`).
    let req = dlrm_input(3, 4, 50, 91);
    let mut ws = Workspace::new();
    let schemes = [Scheme::Unprotected, Scheme::MultiChecksum(2)]
        .into_iter()
        .chain(Scheme::all_protected());
    for scheme in schemes {
        let planner = Planner::new(DeviceSpec::t4()).candidates([scheme]);
        let session =
            Session::builder_network(planner.clone(), "dlrm", |b| zoo::dlrm_net(b, 4, 50, 16, 11))
                .buckets([8])
                .build();
        let compiled = planner.compile(&zoo::dlrm_net(8, 4, 50, 16, 11));
        assert!(compiled.schemes().iter().all(|&s| s == scheme));
        let clean = compiled.infer_into(&req, None, &mut ws);
        for layer in 0..compiled.pipeline().depth() {
            let fault = Some(PipelineFault {
                layer,
                fault: FaultPlan {
                    row: 5,
                    col: 0,
                    after_step: u64::MAX,
                    kind: FaultKind::AddValue(500.0),
                },
            });
            let direct = compiled.infer_into(&req, fault, &mut ws);
            let served = session.serve_with_fault(&req, fault).unwrap().report;
            for r in [&direct, &served] {
                assert!(
                    !r.fault_detected(),
                    "{scheme} layer {layer}: {:?}",
                    r.detections
                );
                assert!(!r.fault_corrected(), "{scheme} layer {layer}");
                assert_eq!(
                    bits(&r.output),
                    bits(&clean.output),
                    "{scheme} layer {layer}"
                );
            }
        }
        assert_eq!(session.stats().faulty_requests, 0, "{scheme}");
    }
}
