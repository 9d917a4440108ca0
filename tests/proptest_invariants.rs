//! Randomized property tests on the core ABFT invariants.
//!
//! Formerly written with `proptest`; the build environment has no
//! crates.io access, so the same properties are exercised as seeded
//! deterministic case loops drawn from `aiga_util::Rng64` — every
//! failure reproduces exactly.

use aiga::prelude::*;
use aiga::util::Rng64;

/// Small-but-varied GEMM shapes (kept modest: the functional engine
/// executes every MAC).
fn random_shape(rng: &mut Rng64) -> GemmShape {
    GemmShape::new(
        rng.range_u64(1, 49),
        rng.range_u64(1, 49),
        rng.range_u64(1, 49),
    )
}

fn random_protected_scheme(rng: &mut Rng64) -> Scheme {
    Scheme::all_protected()[rng.range_usize(0, 5)]
}

/// Soundness: on fault-free data, no scheme ever raises a flag, for any
/// shape and any seed. (The tolerance analysis is doing its job.)
#[test]
fn no_scheme_false_positives() {
    let mut rng = Rng64::seed_from_u64(0x5EED_0001);
    for _ in 0..48 {
        let shape = random_shape(&mut rng);
        let scheme = random_protected_scheme(&mut rng);
        let seed = rng.range_u64(0, 1000);
        let report = ProtectedGemm::random(shape, scheme, seed).run();
        assert!(
            report.verdict.is_clean(),
            "{scheme} flagged clean data on {shape} (seed {seed}): {:?}",
            report.verdict
        );
    }
}

/// Completeness floor: a large additive corruption is detected by every
/// scheme wherever and whenever it strikes.
#[test]
fn large_faults_never_escape() {
    let mut rng = Rng64::seed_from_u64(0x5EED_0002);
    for _ in 0..48 {
        let shape = random_shape(&mut rng);
        let scheme = random_protected_scheme(&mut rng);
        let seed = rng.range_u64(0, 200);
        let row = rng.range_u64(0, shape.m) as usize;
        let col = rng.range_u64(0, shape.n) as usize;
        let epilogue = rng.gen_bool(0.5);
        let fault = FaultPlan {
            row,
            col,
            after_step: if epilogue { u64::MAX } else { 0 },
            kind: FaultKind::AddValue(1.0e4),
        };
        let report = ProtectedGemm::random(shape, scheme, seed)
            .with_fault(fault)
            .run();
        assert!(
            report.verdict.is_detected(),
            "{scheme} missed a 1e4 corruption at ({row},{col}) on {shape}"
        );
    }
}

/// Protection never changes the computed product.
#[test]
fn schemes_do_not_perturb_results() {
    let mut rng = Rng64::seed_from_u64(0x5EED_0003);
    for _ in 0..24 {
        let shape = random_shape(&mut rng);
        let scheme = random_protected_scheme(&mut rng);
        let seed = rng.range_u64(0, 100);
        let clean = ProtectedGemm::random(shape, Scheme::Unprotected, seed).run();
        let protected = ProtectedGemm::random(shape, scheme, seed).run();
        assert_eq!(clean.output.c, protected.output.c, "{scheme} on {shape}");
    }
}

/// The functional engine agrees with the FP64 reference within FP32
/// accumulation error for arbitrary shapes, up to three blocks a side.
#[test]
fn engine_matches_reference() {
    let mut rng = Rng64::seed_from_u64(0x5EED_0004);
    for _ in 0..24 {
        let (m, n, k) = (
            rng.range_usize(1, 150),
            rng.range_usize(1, 150),
            rng.range_usize(1, 64),
        );
        let seed = rng.range_u64(0, 100);
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let out = aiga::gpu::engine::gemm(&a, &b, TileScheme::NONE, &[]);
        let reference = aiga::gpu::engine::gemm_reference_f64(&a, &b);
        for (i, (&got, &want)) in out.c.iter().zip(&reference).enumerate() {
            let err = (got as f64 - want).abs();
            let bound = 1e-5 * (k as f64) * 4.0 + 1e-6;
            assert!(err < bound, "elem {i}: {got} vs {want} (k={k})");
        }
    }
}

/// Workspace pooling is transparent: a seeded sweep of random shapes
/// and schemes through ONE reused workspace (the serving pool regime)
/// produces byte-identical outputs and verdicts to fresh-workspace and
/// allocating-path execution, clean and faulted.
#[test]
fn pooled_workspace_sweep_matches_fresh_execution() {
    let mut rng = Rng64::seed_from_u64(0x5EED_0006);
    let mut pooled = Workspace::new();
    for _ in 0..32 {
        let shape = random_shape(&mut rng);
        let scheme = random_protected_scheme(&mut rng);
        let seed = rng.range_u64(0, 500);
        let g = ProtectedGemm::random(shape, scheme, seed);
        let faults = if rng.gen_bool(0.5) {
            vec![FaultPlan {
                row: rng.range_u64(0, shape.m) as usize,
                col: rng.range_u64(0, shape.n) as usize,
                after_step: u64::MAX,
                kind: FaultKind::AddValue(1.0e3),
            }]
        } else {
            Vec::new()
        };
        let owned = g.run_with(&faults);
        let pooled_verdict = g.run_into(&faults, &mut pooled);
        let mut fresh = Workspace::new();
        let fresh_verdict = g.run_into(&faults, &mut fresh);
        let owned_bits: Vec<u32> = owned.output.c.iter().map(|v| v.to_bits()).collect();
        let pooled_bits: Vec<u32> = pooled.output().c.iter().map(|v| v.to_bits()).collect();
        let fresh_bits: Vec<u32> = fresh.output().c.iter().map(|v| v.to_bits()).collect();
        assert_eq!(owned_bits, pooled_bits, "{scheme} on {shape} (seed {seed})");
        assert_eq!(owned_bits, fresh_bits, "{scheme} on {shape} (seed {seed})");
        assert_eq!(
            owned.verdict.is_detected(),
            pooled_verdict.is_detected(),
            "{scheme} on {shape}"
        );
        assert_eq!(pooled_verdict.is_detected(), fresh_verdict.is_detected());
    }
}

/// Verdict classification is consistent: a detected verdict always
/// carries residual > threshold.
#[test]
fn detected_verdicts_carry_consistent_evidence() {
    let mut rng = Rng64::seed_from_u64(0x5EED_0005);
    for _ in 0..32 {
        let shape = random_shape(&mut rng);
        let scheme = random_protected_scheme(&mut rng);
        let bit = rng.range_u64(24, 31) as u8;
        let fault = FaultPlan {
            row: 0,
            col: 0,
            after_step: u64::MAX,
            kind: FaultKind::BitFlip(bit),
        };
        let report = ProtectedGemm::random(shape, scheme, 17)
            .with_fault(fault)
            .run();
        if let Verdict::Detected {
            residual,
            threshold,
        } = report.verdict
        {
            assert!(residual > threshold);
            assert!(residual.is_finite() || matches!(scheme, Scheme::ReplicationTraditional));
        }
    }
}
