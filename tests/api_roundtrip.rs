//! End-to-end exercise of the redesigned API: plan with `Planner`,
//! serialize the plan to JSON, reload it, and serve a request through a
//! `Session` — verifying that serialized, reloaded, and served scheme
//! choices all agree.

use aiga::prelude::*;

#[test]
fn plans_round_trip_through_json() {
    // Planning is analytical, so large batches are cheap here.
    let planner = Planner::new(DeviceSpec::t4());
    let plans = [8, 2048].map(|bucket| (bucket, planner.plan(&zoo::dlrm_mlp_top(bucket))));

    for (bucket, plan) in &plans {
        let text = plan.to_json();
        let reloaded = ModelPlan::from_json(&text).expect("plan reloads");
        assert_eq!(reloaded.model, plan.model);
        assert_eq!(reloaded.chosen_schemes(), plan.chosen_schemes());
        assert_eq!(
            reloaded.intensity_guided_s().to_bits(),
            plan.intensity_guided_s().to_bits(),
            "bucket {bucket}"
        );
    }

    // The batch-8 and batch-2048 MLP-Top plans genuinely differ (§7.3),
    // so the round-trip equality above is not vacuous.
    assert_ne!(plans[0].1.chosen_schemes(), plans[1].1.chosen_schemes());
}

#[test]
fn session_serves_with_the_reloaded_plans_choices() {
    let planner = Planner::new(DeviceSpec::t4());
    let session = Session::builder(planner.clone(), "dlrm-mlp-top", zoo::dlrm_mlp_top)
        .buckets([8, 32])
        .build();

    for (bucket, rows) in [(8u64, 5usize), (32, 20)] {
        // An operator ships the serialized plan to a serving host; the
        // session's live choices must match it.
        let shipped = planner.plan(&zoo::dlrm_mlp_top(bucket)).to_json();
        let reloaded = ModelPlan::from_json(&shipped).unwrap();

        let reply = session
            .serve(&Matrix::random(rows, 512, 1000 + bucket))
            .expect("request fits a declared bucket");
        assert_eq!(reply.bucket, bucket);
        assert_eq!(
            reply.schemes[..],
            reloaded.chosen_schemes()[..],
            "served schemes must match the serialized plan for bucket {bucket}"
        );
        assert!(!reply.report.fault_detected());
        assert_eq!(reply.report.output.len(), rows);
    }

    let stats = session.stats();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.plan_builds, 2);
}

#[test]
fn scheme_ids_round_trip_through_strings() {
    let mut all = vec![
        Scheme::Unprotected,
        Scheme::MultiChecksum(2),
        Scheme::MultiChecksum(17),
    ];
    all.extend(Scheme::all_protected());
    for scheme in all {
        let id = scheme.to_string();
        assert_eq!(id.parse::<Scheme>().unwrap(), scheme, "{id}");
        // Ids are kebab-case and stable for CLI use.
        assert!(id
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
    }
    assert!("three-sided-abft".parse::<Scheme>().is_err());
    assert!("multi-checksum-0".parse::<Scheme>().is_err());
    assert_eq!(
        " Global-ABFT ".parse::<Scheme>().unwrap(),
        Scheme::GlobalAbft
    );
}

#[test]
fn every_scheme_id_that_parses_plans_compiles_and_runs() {
    // The id domain is the executable domain: a round count is a
    // parameter of the scheme, not an entry some table has to hold.
    let net = zoo::resnet_block_net(2, 8, 8, 7);
    let fault = FaultPlan {
        row: 3,
        col: 5,
        after_step: u64::MAX,
        kind: FaultKind::AddValue(1e3),
    };
    for rounds in [1, 2, 4, 17] {
        let scheme: Scheme = format!("multi-checksum-{rounds}").parse().unwrap();
        let planner = Planner::new(DeviceSpec::t4()).candidates([scheme]);
        let shipped = planner.plan(&net.to_model()).to_json();
        let schemes = ModelPlan::from_json(&shipped).unwrap().chosen_schemes();
        assert_eq!(schemes, vec![scheme; net.gemm_count()]);
        let compiled = CompiledModel::compile(&planner, &net);
        assert_eq!(compiled.schemes()[..], schemes[..]);
        let clean = compiled.infer(&Matrix::random(2, 16 * 8 * 8, 1), None);
        assert!(!clean.fault_detected(), "{scheme}");

        let gemm = ProtectedGemm::random(GemmShape::new(48, 40, 56), scheme, 9);
        assert!(gemm.run().verdict.is_clean(), "{scheme}");
        assert!(
            gemm.with_fault(fault).run().verdict.is_detected(),
            "{scheme}"
        );
    }
}
