//! End-to-end recovery: localization, targeted recompute, transparent
//! retry, and adaptive protection control.
//!
//! The oracle throughout is *byte-equality*: a corrected run must
//! produce exactly the bits of a clean run — not "close enough", the
//! identical FP32 words — because the targeted recompute replays the
//! engine's own fused inner loop over the staged operand panels.

use aiga::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every scheme that can localize, across all three localizer families
/// (column for global ABFT, register tile for thread-level +
/// replication, row for the weighted multi-checksum).
fn localizing_schemes() -> [Scheme; 6] {
    [
        Scheme::GlobalAbft,
        Scheme::ThreadLevelOneSided,
        Scheme::ThreadLevelTwoSided,
        Scheme::ReplicationSingleAcc,
        Scheme::ReplicationTraditional,
        Scheme::MultiChecksum(2),
    ]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

// --- Scheme level -------------------------------------------------------

#[test]
fn every_localizing_scheme_repairs_to_byte_equality() {
    let shape = GemmShape::new(48, 40, 56);
    // Epilogue faults and mid-K accumulator faults, several positions
    // (incl. the cropped fringe of the last full tile).
    let faults = [
        (3usize, 5usize, u64::MAX),
        (0, 0, u64::MAX),
        (47, 39, u64::MAX),
        (17, 22, 1u64),
        (40, 8, 2u64),
    ];
    for scheme in localizing_schemes() {
        let gemm = ProtectedGemm::random(shape, scheme, 11);
        let clean = gemm.run_with(&[]);
        let mut ws = Workspace::new();
        for &(row, col, after_step) in &faults {
            let fault = FaultPlan {
                row,
                col,
                after_step,
                kind: FaultKind::AddValue(300.0),
            };
            let verdict = gemm.run_corrected_into(&[fault], &mut ws);
            assert!(
                verdict.is_corrected(),
                "{scheme} at ({row},{col},{after_step}): {verdict:?}"
            );
            assert_eq!(
                bits(&ws.output().c),
                bits(&clean.output.c),
                "{scheme} at ({row},{col},{after_step}): repair not byte-equal"
            );
        }
    }
}

#[test]
fn repairs_restage_the_strip_they_read_at_every_team_width() {
    // A run keeps no staged copy of its activations: each team member
    // holds whichever block-row stripe it walked last, and repair stages
    // the implicated strip again. Five stripes, the last a single live
    // row; faults in the first stripe (never the one a lone member
    // staged last) and in the last (at widths 2 and 3, whichever member
    // the counter gave its blocks to) repair to the clean bytes.
    let shape = GemmShape::new(257, 72, 64);
    for scheme in localizing_schemes() {
        let gemm = ProtectedGemm::random(shape, scheme, 13);
        let clean = gemm.run_with(&[]);
        let mut ws = Workspace::new();
        for width in [1usize, 2, 3] {
            for (row, col, after_step) in [
                (2usize, 70usize, u64::MAX),
                (256, 3, 1),
                (256, 71, u64::MAX),
            ] {
                let fault = FaultPlan {
                    row,
                    col,
                    after_step,
                    kind: FaultKind::AddValue(300.0),
                };
                let verdict = aiga::util::team::with_width(width, || {
                    gemm.run_corrected_into(&[fault], &mut ws)
                });
                let ctx = format!("{scheme} width {width} at ({row},{col},{after_step})");
                assert!(verdict.is_corrected(), "{ctx}: {verdict:?}");
                assert_eq!(bits(&ws.output().c), bits(&clean.output.c), "{ctx}");
            }
        }
    }
}

#[test]
fn non_finite_faults_are_repaired_from_tile_coordinates() {
    // An accumulator struck to NaN or Inf poisons every sum it enters;
    // the flagged tile coordinates still pin it, and the recompute
    // restores the clean bytes. On the ragged fringe too: the last
    // strip of 33 rows is mostly grid padding.
    let shape = GemmShape::new(33, 65, 40);
    let mut ws = Workspace::new();
    for scheme in [
        Scheme::GlobalAbft,
        Scheme::ThreadLevelOneSided,
        Scheme::ThreadLevelTwoSided,
        Scheme::ReplicationSingleAcc,
        Scheme::ReplicationTraditional,
    ] {
        let gemm = ProtectedGemm::random(shape, scheme, 11);
        let clean = gemm.run_with(&[]);
        for (row, col, after_step, value) in [
            (32usize, 64usize, 2u64, f32::NAN),
            (7, 30, u64::MAX, f32::INFINITY),
        ] {
            let fault = FaultPlan {
                row,
                col,
                after_step,
                kind: FaultKind::SetValue(value),
            };
            let verdict = gemm.run_corrected_into(&[fault], &mut ws);
            assert!(verdict.is_corrected(), "{scheme} {value}: {verdict:?}");
            assert_eq!(
                bits(&ws.output().c),
                bits(&clean.output.c),
                "{scheme} {value}: repair not byte-equal"
            );
        }
    }
}

#[test]
fn corrected_verdicts_carry_the_right_site_family() {
    let shape = GemmShape::new(48, 40, 56);
    let fault = FaultPlan {
        row: 3,
        col: 5,
        after_step: u64::MAX,
        kind: FaultKind::AddValue(300.0),
    };
    let mut ws = Workspace::new();
    let mut site_of = |scheme: Scheme| {
        let gemm = ProtectedGemm::random(shape, scheme, 11);
        match gemm.run_corrected_into(&[fault], &mut ws) {
            Verdict::Corrected { site, vote, .. } => (site, vote),
            other => panic!("{scheme}: {other:?}"),
        }
    };
    // The column localizer pins the exact faulted column.
    let (site, vote) = site_of(Scheme::GlobalAbft);
    assert_eq!(site, FaultSite::Column { col: 5 });
    assert!(!vote);
    // The row localizer recovers the faulted row from the residual ratio.
    let (site, vote) = site_of(Scheme::MultiChecksum(2));
    assert_eq!(site, FaultSite::Row { row: 3 });
    assert!(!vote);
    // Tile localizers name the cells whose compare failed — the fault at
    // (3, 5) sits in strip row 0; per-column checks pin column 5,
    // per-tile checks the tile's first column, one-sided ABFT's row
    // check row 3 and the first column of its group — and replication
    // resolves by vote.
    let tile = |col| FaultSite::Tile { row: 0, col };
    let row_group = FaultSite::Tile { row: 3, col: 0 };
    assert_eq!(site_of(Scheme::ThreadLevelOneSided), (row_group, false));
    assert_eq!(site_of(Scheme::ThreadLevelTwoSided), (tile(0), false));
    assert_eq!(site_of(Scheme::ReplicationTraditional), (tile(5), true));
    assert_eq!(site_of(Scheme::ReplicationSingleAcc), (tile(0), true));
}

#[test]
fn unlocalizable_verdicts_pass_through_unrepaired() {
    // `Unprotected` never flags; a plain detect-only run through the
    // corrected entry point must stay `Clean`/`Detected`, never invent
    // a repair.
    let shape = GemmShape::new(32, 32, 32);
    let fault = FaultPlan {
        row: 1,
        col: 1,
        after_step: u64::MAX,
        kind: FaultKind::AddValue(500.0),
    };
    let mut ws = Workspace::new();
    let g = ProtectedGemm::random(shape, Scheme::Unprotected, 7);
    assert!(g.run_corrected_into(&[fault], &mut ws).is_clean());
    // A clean run through the corrected path is a no-op.
    let g = ProtectedGemm::random(shape, Scheme::GlobalAbft, 7);
    assert!(g.run_corrected_into(&[], &mut ws).is_clean());
}

// --- Pipeline level -----------------------------------------------------

#[test]
fn mid_pipeline_fault_recomputes_one_stage_only() {
    let planner = Planner::new(DeviceSpec::t4());
    let session = |recovery: bool| {
        Session::builder(planner.clone(), "dlrm-mlp-bottom", zoo::dlrm_mlp_bottom)
            .buckets([8])
            .recovery(recovery)
            .build()
    };
    let request = Matrix::random(8, 13, 42);
    let fault = PipelineFault {
        layer: 1,
        fault: FaultPlan {
            row: 2,
            col: 50,
            after_step: 4,
            kind: FaultKind::AddValue(50.0),
        },
    };

    let clean = session(false).serve(&request).unwrap();

    // Detect-only: the fault propagates; output differs from clean.
    let detecting = session(false);
    let tainted = detecting.serve_with_fault(&request, Some(fault)).unwrap();
    assert!(tainted.report.fault_detected());
    assert_ne!(bits(&tainted.report.output), bits(&clean.report.output));

    // Recovery: the implicated slice is recomputed mid-pass — exactly
    // one correction record, zero unrepaired detections, and the final
    // output is byte-equal to the clean pass.
    let recovering = session(true);
    let repaired = recovering.serve_with_fault(&request, Some(fault)).unwrap();
    assert!(!repaired.report.fault_detected());
    assert!(repaired.report.fault_corrected());
    assert_eq!(repaired.report.corrections.len(), 1);
    let c = &repaired.report.corrections[0];
    assert_eq!(c.layer, 1);
    assert!(matches!(
        c.site,
        FaultSite::Tile { .. } | FaultSite::Column { .. }
    ));
    assert_eq!(bits(&repaired.report.output), bits(&clean.report.output));

    let stats = recovering.stats();
    assert_eq!(stats.corrections, 1);
    assert_eq!(stats.faulty_requests, 0, "corrected ≠ faulty");
}

#[test]
fn recovery_pipeline_is_inert_on_clean_traffic() {
    let planner = Planner::new(DeviceSpec::t4());
    let mk = |recovery: bool| {
        Session::builder(planner.clone(), "dlrm-mlp-bottom", zoo::dlrm_mlp_bottom)
            .buckets([8])
            .recovery(recovery)
            .build()
    };
    let request = Matrix::random(8, 13, 43);
    let a = mk(false).serve(&request).unwrap();
    let b = mk(true).serve(&request).unwrap();
    assert_eq!(bits(&a.report.output), bits(&b.report.output));
    assert!(b.report.corrections.is_empty());
}

/// The slot stage 1 of `net` hands on, per element — one scalar encode
/// of each cell of its GEMM output, ReLU applied, NCHW for a conv — with
/// `fault` struck into that output: `src` is stage 0's slot, the GEMM
/// runs apart from any pipeline.
fn struck_slot_oracle(
    net: &Network,
    src: aiga::gpu::engine::MatrixView<'_>,
    fault: FaultPlan,
) -> Vec<aiga::dtype::F16> {
    use aiga::gpu::engine::{gemm, MatrixView};
    use aiga::nn::graph::NodeOp;
    // The pipeline's ReLU: `v` where `v >= 0` (−0.0 kept), else +0.0
    // (NaN included) — not `f32::max`, whose sign at ±0 Rust leaves open.
    let rectify = |v: f32| if v >= 0.0 { v } else { 0.0 };
    let encode = |v: f32, relu: bool| {
        let v = if relu { rectify(v) } else { v };
        aiga::dtype::F16::from_bits(Dtype::F16.encode(v))
    };
    let none = TileScheme::NONE;
    match &net.nodes[1].op {
        NodeOp::Conv {
            params,
            weights,
            relu,
        } => {
            let (c, h, w) = net.dims_of(net.nodes[1].inputs[0]);
            let geom = params.im2col_view(c, h, w);
            let a = MatrixView::im2col_lowered(src.rows, geom, src.data, Dtype::F16);
            let weights = aiga::nn::conv::filters_to_matrix(weights);
            let out = gemm(a, &weights, none, &[fault]);
            let spatial = geom.out_h * geom.out_w;
            let cells = (0..src.rows)
                .flat_map(|n| (0..out.n).flat_map(move |co| (0..spatial).map(move |s| (n, co, s))));
            cells
                .map(|(n, co, s)| encode(out.get(n * spatial + s, co), *relu))
                .collect()
        }
        NodeOp::Fc { weights, relu } => {
            let out = gemm(src, weights, none, &[fault]);
            out.c.iter().map(|&v| encode(v, *relu)).collect()
        }
        other => panic!("stage 1 is a GEMM, not {other:?}"),
    }
}

#[test]
fn a_repaired_stage_hands_on_the_clean_slot_and_a_flagged_one_the_struck_slot() {
    // A stage's slot is written by the engine's tasks as each block
    // leaves the walk — before a repair can have touched a cell. So a
    // `Corrected` stage must be emitted again (the slot equals the clean
    // pass's), and a detect-only pass must hand on exactly the struck
    // cells the check saw. Three GEMMs deep, the middle one struck: a
    // conv of 162 rows × 70 columns and an fc of 130 × 70 — three
    // stripes, the last ragged, two column blocks, enough work that up
    // to three members share the blocks. The first stage's slot (the
    // struck stage's source) and the struck stage's survive the pass.
    let conv = {
        let mut b = NetworkBuilder::new("mid-conv", 2, 4, 9, 9, 17);
        b.conv("c0", 24, 3, 1, 1, true);
        b.conv("c1", 70, 3, 1, 1, true);
        b.conv("tail", 3, 1, 1, 0, false);
        b.build()
    };
    let fc = {
        let mut b = NetworkBuilder::new("mid-fc", 130, 24, 1, 1, 17);
        b.fc("fc0", 256, true);
        b.fc("fc1", 70, true);
        b.fc("fc2", 5, false);
        b.build()
    };
    for net in [conv, fc] {
        let input = Matrix::random(net.batch, net.input_features(), 29);
        let m = net.to_model().layers[1].shape.m as usize;
        for scheme in localizing_schemes() {
            let schemes = vec![scheme; net.gemm_count()];
            let detect = ProtectedPipeline::compile(&net, &schemes);
            let repair = ProtectedPipeline::compile(&net, &schemes).with_recovery(true);
            let mut clean_ws = Workspace::new();
            let clean = detect.infer_into(&input, None, &mut clean_ws);
            assert!(!clean.fault_detected(), "{} {scheme}", net.name);
            // First and last stripe, both column blocks, epilogue and
            // mid-walk.
            for (row, col, after_step) in [
                (2usize, 1usize, u64::MAX),
                (2, 69, 1),
                (m - 1, 69, u64::MAX),
                (m - 1, 1, 1),
            ] {
                let fault = FaultPlan {
                    row,
                    col,
                    after_step,
                    kind: FaultKind::AddValue(300.0),
                };
                let struck = Some(PipelineFault { layer: 1, fault });
                for width in [1usize, 3] {
                    let ctx = format!(
                        "{} {scheme} ({row},{col},{after_step}) width {width}",
                        net.name
                    );
                    let mut ws = Workspace::new();
                    let repaired = aiga::util::team::with_width(width, || {
                        repair.infer_into(&input, struck, &mut ws)
                    });
                    assert!(
                        repaired.fault_corrected() && !repaired.fault_detected(),
                        "{ctx}: {:?}",
                        repaired.detections
                    );
                    assert_eq!(
                        ws.slot(1).data,
                        clean_ws.slot(1).data,
                        "{ctx}: repaired slot"
                    );
                    assert_eq!(bits(&repaired.output), bits(&clean.output), "{ctx}");

                    let mut ws = Workspace::new();
                    let flagged = aiga::util::team::with_width(width, || {
                        detect.infer_into(&input, struck, &mut ws)
                    });
                    assert!(flagged.fault_detected(), "{ctx}");
                    let want = struck_slot_oracle(&net, clean_ws.slot(0), fault);
                    assert_ne!(
                        want,
                        clean_ws.slot(1).data,
                        "{ctx}: the fault reaches the slot"
                    );
                    assert_eq!(ws.slot(1).data, want, "{ctx}: struck slot");
                }
            }
        }
    }
}

// --- Server level -------------------------------------------------------

#[test]
fn server_retry_hides_verdicts_under_concurrent_load() {
    let session = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([8, 32])
    .build();
    let reference = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([8, 32])
    .build();
    let server = Server::builder(session)
        .workers(2)
        .retry_on_verdict(true)
        .build();

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 3;
    let fault = PipelineFault {
        layer: 1,
        fault: FaultPlan {
            row: 2,
            col: 50,
            after_step: 4,
            kind: FaultKind::AddValue(50.0),
        },
    };
    let mismatches = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let client = server.client();
            let reference = &reference;
            let mismatches = &mismatches;
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    let rows = 3 + (c + i) % 6;
                    let request = Matrix::random(rows, 13, 900 + (c * PER_CLIENT + i) as u64);
                    // Every request carries the transient fault; the
                    // retry must make each reply indistinguishable from
                    // a clean solo serve.
                    let reply = client
                        .submit_with_fault(&request, Some(fault))
                        .unwrap()
                        .wait()
                        .unwrap();
                    assert!(!reply.report.fault_detected(), "client {c} req {i}");
                    let solo = reference.serve(&request).unwrap();
                    if bits(&reply.report.output) != bits(&solo.report.output) {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(mismatches.load(Ordering::Relaxed), 0);
    let stats = server.shutdown();
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.retries, (CLIENTS * PER_CLIENT) as u64);
    assert!(stats.retry_p50_latency_ns > 0);
}

#[test]
fn recovery_through_the_server_is_byte_equal_under_concurrent_load() {
    let session = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([8])
    .recovery(true)
    .build();
    let reference = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([8])
    .build();
    let server = Server::builder(session).workers(2).build();

    const CLIENTS: usize = 4;
    let fault = PipelineFault {
        layer: 0,
        fault: FaultPlan {
            row: 1,
            col: 100,
            after_step: 2,
            kind: FaultKind::AddValue(80.0),
        },
    };
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let client = server.client();
            let reference = &reference;
            scope.spawn(move || {
                for i in 0..3 {
                    let request = Matrix::random(5, 13, 700 + (c * 3 + i) as u64);
                    let reply = client
                        .submit_with_fault(&request, Some(fault))
                        .unwrap()
                        .wait()
                        .unwrap();
                    assert!(reply.report.fault_corrected(), "client {c} req {i}");
                    assert!(!reply.report.fault_detected());
                    let solo = reference.serve(&request).unwrap();
                    assert_eq!(
                        bits(&reply.report.output),
                        bits(&solo.report.output),
                        "client {c} req {i}: corrected reply must be byte-equal"
                    );
                }
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.session.corrections, (CLIENTS * 3) as u64);
    assert_eq!(stats.session.faulty_requests, 0);
    assert_eq!(stats.retries, 0, "retry was not enabled");
}

// --- Adaptive controller ------------------------------------------------

#[test]
fn controller_escalates_and_relaxes_with_hysteresis() {
    let cfg = AdaptConfig {
        window: 4,
        escalate_threshold: 0.5,
        relax_threshold: 0.01,
        min_dwell: 4,
    };
    let mut ctrl = AdaptiveController::new(cfg, vec![Scheme::GlobalAbft]);

    // A burst of faults escalates one rung once the window fills.
    let mut adjustment = None;
    for _ in 0..4 {
        adjustment = ctrl.observe(0, true).or(adjustment);
    }
    let up = adjustment.expect("escalation");
    assert!(up.escalated);
    assert_eq!(up.from, Scheme::GlobalAbft);
    assert_eq!(up.to, Scheme::MultiChecksum(2));

    // Hysteresis: the switch cleared the window and started a dwell, so
    // clean traffic inside it cannot flap the scheme back.
    for i in 0..3 {
        assert_eq!(ctrl.observe(0, false), None, "flapped at {i}");
    }
    // Once the window refills past the dwell, full relaxation follows.
    let down = ctrl.observe(0, false).expect("relaxation");
    assert!(!down.escalated);
    assert_eq!(down.to, Scheme::GlobalAbft);
    assert_eq!(ctrl.current()[0], Scheme::GlobalAbft);
}

#[test]
fn adaptive_session_escalates_under_faults_and_relaxes_when_clean() {
    let cfg = AdaptConfig {
        window: 2,
        escalate_threshold: 0.5,
        relax_threshold: 0.01,
        min_dwell: 2,
    };
    let session = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([8])
    .adaptive(cfg)
    .build();
    let request = Matrix::random(8, 13, 42);
    let fault = PipelineFault {
        layer: 1,
        fault: FaultPlan {
            row: 2,
            col: 50,
            after_step: 4,
            kind: FaultKind::AddValue(50.0),
        },
    };
    let baseline = session.serve(&request).unwrap().schemes.clone();

    // Hammer layer 1 with faults until the controller escalates it.
    let mut escalated = None;
    for i in 0..8 {
        session.serve_with_fault(&request, Some(fault)).unwrap();
        let r = session.serve_with_fault(&request, Some(fault)).unwrap();
        if r.schemes[1] != baseline[1] {
            escalated = Some((i, r.schemes.clone()));
            break;
        }
    }
    let (_, schemes) = escalated.expect("layer 1 must escalate");
    assert_eq!(schemes[..1], baseline[..1], "other layers stay put");
    assert!(session.stats().adaptations >= 1);

    // Clean traffic relaxes it back to the static plan.
    let mut relaxed = false;
    for _ in 0..16 {
        let r = session.serve(&request).unwrap();
        if r.schemes[..] == baseline[..] {
            relaxed = true;
            break;
        }
    }
    assert!(relaxed, "layer 1 must relax back to baseline");
    assert!(session.stats().adaptations >= 2);
    // Back at baseline the escalated overlay is gone: outputs are
    // byte-equal to the static plan's.
    let r = session.serve(&request).unwrap();
    let s = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([8])
    .build();
    assert_eq!(
        bits(&r.report.output),
        bits(&s.serve(&request).unwrap().report.output)
    );
}

// --- Campaign oracle ----------------------------------------------------

#[test]
fn correction_campaign_oracle_holds_for_every_localizing_scheme() {
    let shape = GemmShape::new(32, 32, 32);
    // Deterministic sweep of large epilogue faults across the output.
    let faults: Vec<FaultPlan> = (0..48)
        .map(|i| FaultPlan {
            row: (i * 7) % 32,
            col: (i * 11) % 32,
            after_step: if i % 3 == 0 { u64::MAX } else { (i % 8) as u64 },
            kind: FaultKind::AddValue(200.0 + i as f32),
        })
        .collect();
    for scheme in localizing_schemes() {
        let campaign = Campaign::new(shape, scheme, 21).with_correction(true);
        let stats = campaign.run_faults(&faults);
        assert_eq!(stats.trials, faults.len());
        assert_eq!(
            stats.corrected,
            faults.len(),
            "{scheme}: every large fault must be repaired to byte-equality ({stats:?})"
        );
        assert_eq!(stats.sdc, 0, "{scheme}");
        assert_eq!(
            stats.detected, 0,
            "{scheme}: nothing should survive unrepaired"
        );
        assert!((stats.correction_rate() - 1.0).abs() < 1e-12);
    }
}

#[test]
fn replication_correction_eliminates_sdc_on_random_bit_flips() {
    // Exact-compare replication catches every corrupting flip; with
    // correction on, the lane recompute repairs them all — zero SDC,
    // zero unrepaired detections, over the full random-flip model.
    let shape = GemmShape::new(32, 32, 32);
    let campaign = Campaign::new(shape, Scheme::ReplicationTraditional, 13).with_correction(true);
    let stats = campaign.run_bit_flips(120, 14);
    assert_eq!(stats.sdc, 0, "{stats:?}");
    assert_eq!(stats.detected, 0, "{stats:?}");
    assert!(stats.corrected > 0);
    assert_eq!(stats.false_positives, 0);
}

#[test]
fn detailed_trials_feed_the_adaptive_controller() {
    // The campaign's per-trial records and the controller share one
    // observation type: replaying a campaign against a controller
    // escalates it exactly as live traffic would.
    let shape = GemmShape::new(32, 32, 32);
    let campaign = Campaign::new(shape, Scheme::GlobalAbft, 17).with_correction(true);
    let faults: Vec<FaultPlan> = (0..8)
        .map(|i| FaultPlan {
            row: i,
            col: (3 * i) % 32,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(300.0),
        })
        .collect();
    let trials = campaign.run_faults_detailed(&faults);
    assert_eq!(trials.len(), faults.len());
    for t in &trials {
        assert_eq!(t.observation.scheme, Scheme::GlobalAbft);
        assert!(t.observation.fault_flagged());
        assert_eq!(t.outcome, Outcome::Corrected);
    }
    let cfg = AdaptConfig {
        window: 4,
        escalate_threshold: 0.5,
        relax_threshold: 0.01,
        min_dwell: 1,
    };
    let mut ctrl = AdaptiveController::new(cfg, vec![Scheme::GlobalAbft]);
    let mut adjusted = None;
    for t in &trials {
        adjusted = ctrl.observe_trial(0, &t.observation).or(adjusted);
    }
    let adj = adjusted.expect("replayed faults must escalate");
    assert!(adj.escalated);
}
