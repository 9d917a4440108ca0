//! Bit-exactness regression net for the engine's execution paths.
//!
//! The FNV-1a hashes below pin the engine's **canonical accumulation
//! order**: per output element, one FP32 accumulator updated by one
//! correctly-rounded FMA per K element, in K order
//! (`acc = a[kk].mul_add(b[kk], acc)`). Every execution path — the
//! AVX2 and AVX-512 microkernels with or without checksum lanes, the
//! scalar oracle, sequential and block-parallel workspace runs — is
//! required to produce exactly this sequence per element, so any hash
//! drift is a real numerics regression, not tolerable noise. The hashes
//! were produced by the scalar reference walk; every pin is checked on
//! every path the host runs, and the SIMD sweep below proves the
//! microkernels reproduce the oracle's detections byte for byte too.

use aiga_core::schemes::Scheme;
use aiga_core::BoundGemm;
use aiga_gpu::engine::simd;
use aiga_gpu::engine::{Dest, FaultKind, FaultPlan, GemmOutput, Matrix, Workspace};

fn fnv1a_of_c(c: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in c {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

const ALL_SCHEMES: [Scheme; 6] = [
    Scheme::Unprotected,
    Scheme::GlobalAbft,
    Scheme::ThreadLevelOneSided,
    Scheme::ThreadLevelTwoSided,
    Scheme::ReplicationSingleAcc,
    Scheme::ReplicationTraditional,
];

/// (m, n, k, seed, clean hash, faulted hash) — one row per shape; every
/// scheme must hit the same hashes (schemes never change the math). The
/// last two rows span two or three 64×64 blocks in each dimension with
/// ragged last blocks, strips and register tiles; their hashes were
/// recorded under another blocking (per-shape, before the engine had
/// one) — the accumulation order per cell does not depend on it. The
/// two after them end in a strip with one live row (a batch-1 fc layer
/// of 63 column groups, the last ragged; a full strip plus one row over
/// three groups) and were recorded when that strip still ran the
/// four-row tile over f32 panels: the one-row tile and the widened
/// codes compute the same chains.
const GOLDEN: &[(usize, usize, usize, u64, u64, u64)] = &[
    (17, 9, 11, 1000, 0x8a50a5e47da48ca4, 0x86f3cef29ba2967d),
    (32, 32, 32, 1017, 0xc0ff88eed11fa61c, 0x582af8c42132cba5),
    (48, 40, 56, 1034, 0x059aff3647451f98, 0x92431c5d8a600cfe),
    (64, 64, 64, 1051, 0x26301469fa43be22, 0x9e6bd37730ee8074),
    (33, 65, 40, 1068, 0xda55a6ff30a49f7f, 0xe973d276aa8e6bc3),
    (130, 150, 24, 1085, 0xf3217a5ae8e70d7d, 0x98301baee5fa1519),
    (129, 67, 40, 1102, 0x8cfc2aa7101b2f52, 0x530e75fa5d49dda2),
    (1, 1000, 1024, 1119, 0x5de852cd4f27312a, 0x3bc13769af8e2960),
    (5, 40, 24, 1136, 0x7dbabae92c3bf615, 0x71f6efc4d1443129),
];

/// One run of `bound` over `a` in a throwaway workspace: its output.
fn run(bound: &BoundGemm, a: &Matrix, faults: &[FaultPlan]) -> GemmOutput {
    let mut ws = Workspace::new();
    bound.run_into(a.view(), faults, Dest::None, &mut ws);
    ws.take_output()
}

fn mid_fault(m: usize, n: usize) -> FaultPlan {
    FaultPlan {
        row: (m - 1) / 2,
        col: (n - 1) / 2,
        after_step: 3,
        kind: FaultKind::AddValue(64.0),
    }
}

#[test]
fn every_scheme_reproduces_the_canonical_outputs() {
    simd::on_each_path(|path| {
        for &(m, n, k, seed, clean_hash, dirty_hash) in GOLDEN {
            let a = Matrix::random(m, k, seed);
            let b = Matrix::random(k, n, seed + 1);
            let fault = mid_fault(m, n);
            for &scheme in &ALL_SCHEMES {
                let bound = scheme.bind(&b);
                let clean = run(&bound, &a, &[]);
                assert_eq!(
                    fnv1a_of_c(&clean.c),
                    clean_hash,
                    "{scheme} clean output drifted on {m}x{n}x{k} ({path:?})"
                );
                let dirty = run(&bound, &a, &[fault]);
                assert_eq!(
                    fnv1a_of_c(&dirty.c),
                    dirty_hash,
                    "{scheme} faulted output drifted on {m}x{n}x{k} ({path:?})"
                );
            }
        }
    });
}

#[test]
fn simd_and_scalar_paths_agree_byte_for_byte_across_all_schemes() {
    // The dispatcher's paths must be indistinguishable: for every
    // scheme, every golden shape (odd/padded shapes included), clean and
    // mid-kernel-faulted, every SIMD microkernel the host runs must
    // reproduce the scalar oracle's bytes — outputs AND detection
    // verdicts. All path flipping happens inside `on_each_path` so
    // concurrent tests (path-independent by this very guarantee) never
    // observe a torn override; the legs the host cannot run are logged.
    for &(m, n, k, seed, _, _) in GOLDEN {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let fault = mid_fault(m, n);
        for &scheme in &ALL_SCHEMES {
            let bound = scheme.bind(&b);
            for faults in [&[][..], &[fault][..]] {
                // One-sided tiles carry only checksum lanes, and the
                // magnitudes of opened columns are taken lazily, both in
                // the same order contract, so detections agree to the
                // bit: coordinates, residuals, thresholds.
                let key = |d: &aiga_gpu::engine::Detection| {
                    (
                        d.row,
                        d.col,
                        d.cols,
                        d.residual.to_bits(),
                        d.threshold.to_bits(),
                    )
                };
                let runs = simd::on_each_path(|path| {
                    let out = run(&bound, &a, faults);
                    let bits: Vec<u32> = out.c.iter().map(|x| x.to_bits()).collect();
                    (
                        path,
                        bits,
                        out.detections.iter().map(key).collect::<Vec<_>>(),
                    )
                });
                let (_, scalar_bits, scalar_detections) = &runs[0];
                for (path, bits, detections) in &runs {
                    let ctx =
                        format!("{scheme} on {m}x{n}x{k}, {path:?} against the scalar oracle");
                    assert_eq!(bits, scalar_bits, "outputs diverged: {ctx}");
                    assert_eq!(detections, scalar_detections, "detections diverged: {ctx}");
                    assert_eq!(
                        !faults.is_empty() && scheme.is_thread_level(),
                        !detections.is_empty(),
                        "verdict: {ctx}"
                    );
                }
            }
        }
    }
}

#[test]
fn fast_and_hooked_walks_are_byte_identical() {
    // The plain microkernel pass and the redundancy-carrying passes
    // (replication's second pass into a shadow tile, one-sided's
    // checksum lanes) must leave identical bytes in the data tile,
    // including with a mid-kernel exponent flip.
    for &(m, n, k) in &[(48usize, 40usize, 64usize), (33, 65, 40)] {
        let a = Matrix::random(m, k, 7);
        let b = Matrix::random(k, n, 8);
        let fast = Scheme::Unprotected.bind(&b);
        let shadowed = Scheme::ReplicationTraditional.bind(&b);
        let laned = Scheme::ThreadLevelOneSided.bind(&b);
        for faults in [
            &[][..],
            &[FaultPlan {
                row: 1,
                col: 1,
                after_step: 5,
                kind: FaultKind::BitFlip(30),
            }][..],
        ] {
            let bits = |k: &BoundGemm| -> Vec<u32> {
                let out = run(k, &a, faults);
                out.c.iter().map(|v| v.to_bits()).collect()
            };
            let want = bits(&fast);
            assert_eq!(want, bits(&shadowed), "shadow pass on {m}x{n}x{k}");
            assert_eq!(want, bits(&laned), "checksum lanes on {m}x{n}x{k}");
        }
    }
}

/// (dtype, m, n, k, seed, clean hash, faulted hash) — the non-fp16
/// precision pins: one bf16 and one fp8 shape, hashed by the scalar
/// reference walk over dtype-decoded operands. One scheme per family
/// (thread-level, replication, global) must reproduce them, proving
/// that widening resident codes in the B load keeps every family's math
/// identical across storage formats.
const GOLDEN_DTYPE: &[(aiga_gpu::engine::Dtype, usize, usize, usize, u64, u64, u64)] = &[
    (
        aiga_gpu::engine::Dtype::Bf16,
        48,
        40,
        56,
        1034,
        0xbfeb79d3dbe6b11a,
        0xe16798225d9fdb0e,
    ),
    (
        aiga_gpu::engine::Dtype::Fp8E4M3,
        32,
        32,
        32,
        1017,
        0x2da8c99718dfffac,
        0x29ac2c01261e00a5,
    ),
];

#[test]
fn every_scheme_family_reproduces_the_canonical_outputs_per_dtype() {
    const FAMILY_REPS: [Scheme; 4] = [
        Scheme::Unprotected,
        Scheme::ThreadLevelTwoSided,
        Scheme::ReplicationTraditional,
        Scheme::GlobalAbft,
    ];
    simd::on_each_path(|path| {
        for &(dtype, m, n, k, seed, clean_hash, dirty_hash) in GOLDEN_DTYPE {
            let a = Matrix::random_dtype(m, k, seed, dtype);
            let b = Matrix::random_dtype(k, n, seed + 1, dtype);
            let fault = mid_fault(m, n);
            for &scheme in &FAMILY_REPS {
                let bound = scheme.bind(&b);
                let clean = run(&bound, &a, &[]);
                assert_eq!(
                    fnv1a_of_c(&clean.c),
                    clean_hash,
                    "{scheme} clean {dtype} output drifted on {m}x{n}x{k} ({path:?})"
                );
                let dirty = run(&bound, &a, &[fault]);
                assert_eq!(
                    fnv1a_of_c(&dirty.c),
                    dirty_hash,
                    "{scheme} faulted {dtype} output drifted on {m}x{n}x{k} ({path:?})"
                );
            }
        }
    });
}
