//! Workspace-reuse correctness: executing through one long-lived
//! (dirty) workspace must be byte-identical to executing through fresh
//! workspaces and to the allocating convenience paths, at every layer
//! of the stack — engine, pipeline, and serving session.

use aiga::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn no_stale_cell_survives_a_change_of_shape() {
    // The engine clears nothing between runs — not the output, not a
    // member's stripe panels or block tile — so a large → small → large
    // → empty-K sequence through one workspace is where a stale cell
    // would show: each run must equal a fresh workspace's bytes. The
    // large shapes fan out across the team; the k = 0 one must come
    // back all zeros from a buffer full of the previous run's cells.
    use aiga::gpu::engine::{gemm_into, PackedWeights};
    let mut ws = Workspace::new();
    for scheme in [Scheme::ThreadLevelOneSided, Scheme::ReplicationTraditional] {
        for (i, (m, n, k)) in [
            (300usize, 200usize, 96usize),
            (3, 5, 8),
            (300, 200, 96),
            (300, 200, 0),
        ]
        .into_iter()
        .enumerate()
        {
            let a = Matrix::random(m, k, 7 + i as u64);
            let b = Matrix::random(k, n, 8 + i as u64);
            let tile = scheme.tile_scheme(k.next_multiple_of(8));
            let packed = PackedWeights::pack(&b);
            let fault = FaultPlan {
                row: m - 1,
                col: n - 1,
                after_step: 0,
                kind: FaultKind::AddValue(77.0),
            };
            let fresh = gemm_into(
                &a,
                &packed,
                tile,
                &[fault],
                Dest::None,
                &mut Workspace::new(),
            )
            .clone();
            let reused = gemm_into(&a, &packed, tile, &[fault], Dest::None, &mut ws);
            let ctx = format!("{scheme} {m}x{n}x{k}");
            assert_eq!(bits(&reused.c), bits(&fresh.c), "{ctx}");
            assert_eq!(reused.detections, fresh.detections, "{ctx}");
            assert_eq!(reused.detections.is_empty(), k == 0, "{ctx}");
            if k == 0 {
                assert!(reused.c.iter().all(|v| v.to_bits() == 0), "{ctx}");
            }
        }
    }
}

#[test]
fn pipeline_reports_are_identical_across_workspace_regimes() {
    let net = Network::from_mlp(&zoo::dlrm_mlp_bottom(16), 2);
    let input = Matrix::random(16, 13, 4242);
    let fault = PipelineFault {
        layer: 1,
        fault: FaultPlan {
            row: 3,
            col: 100,
            after_step: 2,
            kind: FaultKind::AddValue(40.0),
        },
    };
    for scheme in [Scheme::GlobalAbft, Scheme::ThreadLevelOneSided] {
        let p = ProtectedPipeline::compile(&net, &vec![scheme; net.gemm_count()]);
        let mut shared = Workspace::new();
        for fault in [None, Some(fault)] {
            // Same request served three ways: allocating convenience,
            // fresh workspace, and a workspace dirtied by prior runs.
            let convenience = p.infer(&input, fault);
            let fresh = p.infer_into(&input, fault, &mut Workspace::new());
            let reused_once = p.infer_into(&input, fault, &mut shared);
            let reused_again = p.infer_into(&input, fault, &mut shared);
            for other in [&fresh, &reused_once, &reused_again] {
                assert_eq!(
                    bits(&convenience.output),
                    bits(&other.output),
                    "{scheme} output drifted across workspace regimes"
                );
                assert_eq!(
                    convenience.detections.len(),
                    other.detections.len(),
                    "{scheme} detections drifted"
                );
            }
        }
    }
}

#[test]
fn session_serves_identically_from_cold_and_warm_workspaces() {
    let make_session = || {
        Session::builder(
            Planner::new(DeviceSpec::t4()),
            "dlrm-mlp-bottom",
            zoo::dlrm_mlp_bottom,
        )
        .buckets([8, 32])
        .build()
    };
    let warm = make_session();
    // Dirty the pooled workspace with requests of several shapes.
    for (rows, seed) in [(32usize, 1u64), (3, 2), (20, 3), (70, 4)] {
        warm.serve(&Matrix::random(rows, 13, seed)).unwrap();
    }
    for (rows, seed) in [(1usize, 100u64), (8, 101), (9, 102), (32, 103), (50, 104)] {
        let req = Matrix::random(rows, 13, seed);
        let from_warm = warm.serve(&req).unwrap();
        let from_cold = make_session().serve(&req).unwrap();
        assert_eq!(
            bits(&from_warm.report.output),
            bits(&from_cold.report.output),
            "rows={rows}: warm pool diverged from cold session"
        );
        assert_eq!(from_warm.report.output.len(), rows * 64);
    }
}
