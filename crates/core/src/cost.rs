//! Per-scheme kernel cost profiles for the timing model.
//!
//! This is where Table 1 meets the `aiga-gpu` timing model — but the
//! per-scheme arithmetic itself lives with each scheme's
//! [`crate::kernel::SchemeKernel`] implementation. The functions here are
//! the evaluation loop: take a baseline profile, ask the registry's
//! kernel for a scheme to add its costs, and estimate the result.
//!
//! Unit conventions: one MMA participation is 8 Tensor-Core FLOPs (a
//! thread's share of one `m16n8k8` per K-step pair); one checksum op is
//! an `HADD2`-class packed instruction — two FP16 adds, but charged one
//! flop-equivalent of the packed-math peak because it partially
//! dual-issues into Tensor-Core pipeline gaps (calibrated). See
//! [`crate::kernel::FLOPS_PER_MMA_PARTICIPATION`] and
//! [`crate::kernel::FLOPS_PER_CHECKSUM_OP`].

use crate::registry::{self, SchemeRegistry};
use crate::schemes::Scheme;
use aiga_dtype::Dtype;
use aiga_gpu::timing::{self, Calibration, KernelProfile, TimeEstimate};
use aiga_gpu::{DeviceSpec, GemmPath, GemmShape};

pub use crate::kernel::{FLOPS_PER_CHECKSUM_OP, FLOPS_PER_MMA_PARTICIPATION};

/// Builds the kernel profile of a scheme-protected GEMM.
pub fn scheme_profile(
    scheme: Scheme,
    shape: GemmShape,
    device: &DeviceSpec,
    calib: &Calibration,
) -> KernelProfile {
    let mut p = KernelProfile::baseline(shape, device, calib);
    apply_scheme(&mut p, scheme, calib);
    p
}

/// Adds a scheme's costs to an existing baseline profile (used by sweeps
/// that pin the tiling across schemes), resolving the scheme through the
/// shared built-in registry.
pub fn apply_scheme(p: &mut KernelProfile, scheme: Scheme, calib: &Calibration) {
    apply_scheme_with(registry::shared(), p, scheme, calib);
}

/// [`apply_scheme`] against an explicit registry (custom scheme sets).
pub fn apply_scheme_with(
    registry: &SchemeRegistry,
    p: &mut KernelProfile,
    scheme: Scheme,
    calib: &Calibration,
) {
    registry.resolve(scheme).apply_cost(p, calib);
}

/// Coarse wall-clock estimate, in seconds, of one request through a
/// bound `shape` layer on the **host** functional substrate via `path`,
/// with operands stored as `dtype` and `a_src_elems` activation
/// elements actually read from storage.
///
/// Everything else in this module prices schemes on the *simulated*
/// device; this prices the simulation itself. Campaign planners and
/// serving shard sizing use it to budget sweeps without running them,
/// and it is keyed off the engine's [`GemmPath`] dispatch so the budget
/// tracks whichever microkernel the runner actually selects (including
/// under `AIGA_FORCE_SCALAR`).
///
/// The throughput constants are effective rates, not peaks: the SIMD
/// figure is the ballpark a warm 256³ run of the AVX2+FMA microkernel
/// reaches on one ~2 GHz reference core; the scalar figure reflects the
/// one-FMA-chain-per-element oracle walk. Deliberately coarse —
/// relative ordering and order-of-magnitude are what callers rely on.
///
/// The traffic term follows what a request moves:
///
/// - **A** is staged per run: `a_src_elems` read at the storage width,
///   plus the 4 B f32 panel write over the full `m · k` volume, plus
///   one cache-warm pass over the dtype's decode table
///   ([`Dtype::decode_table_bytes`]). A dense GEMM reads every element
///   (`a_src_elems = m · k`); a convolution on the fused im2col→panel
///   path reads only the activation tensor (`batch · C_in · H · W` —
///   window overlap re-reads hit cache and are not charged), which for
///   a 3×3 stride-1 conv cuts the A-read bytes ~9×.
/// - **B** was decoded and packed when the layer was bound, so a
///   request streams it once as f32: 4 B per element whatever the
///   storage format. Narrow weights no longer make a request cheaper on
///   the host; narrow activations still do.
pub fn host_substrate_estimate(
    shape: GemmShape,
    path: GemmPath,
    dtype: Dtype,
    a_src_elems: u64,
) -> f64 {
    const SIMD_FLOPS_PER_S: f64 = 20.0e9;
    const SCALAR_FLOPS_PER_S: f64 = 2.0e9;
    const STAGE_BYTES_PER_S: f64 = 4.0e9;
    let flops = 2.0 * shape.m as f64 * shape.n as f64 * shape.k as f64;
    let bytes = dtype.bytes() as f64 * a_src_elems as f64
        + 4.0 * (shape.m * shape.k) as f64
        + dtype.decode_table_bytes() as f64
        + 4.0 * (shape.k * shape.n) as f64;
    let rate = if path.is_simd() {
        SIMD_FLOPS_PER_S
    } else {
        SCALAR_FLOPS_PER_S
    };
    flops / rate + bytes / STAGE_BYTES_PER_S
}

/// Arithmetic intensity of a conv layer on the fused implicit-GEMM
/// path: `A` traffic is the activation footprint (`a_src_elems`, i.e.
/// `batch · C_in · H · W`) instead of the lowered `m · k` matrix, while
/// `B` and `C` keep their padded-shape volumes. High-overlap kernels
/// (3×3 stride 1) shed up to ~9× of their `A` bytes, which can lift a
/// layer from below the device's compute-to-memory ratio to above it —
/// flipping the intensity-guided scheme selection from thread-level to
/// global ABFT. The device-side planner keeps the paper's materialized
/// traffic model (its figures are validated against it); this is the
/// host-substrate view of the same layer.
pub fn fused_conv_intensity(shape: GemmShape, a_src_elems: u64, dtype: Dtype) -> f64 {
    let p = shape.padded_to_mma();
    let bytes = dtype.bytes() * (a_src_elems + p.k * p.n + p.m * p.n);
    p.flops() as f64 / bytes as f64
}

/// Timing of one scheme on one layer, with its overhead over the
/// unprotected baseline.
#[derive(Clone, Debug)]
pub struct SchemeTiming {
    /// The scheme evaluated.
    pub scheme: Scheme,
    /// Its time estimate.
    pub estimate: TimeEstimate,
    /// Percentage overhead versus the unprotected baseline (§6.2 metric).
    pub overhead_pct: f64,
}

/// Evaluates a set of schemes on one GEMM shape, returning each scheme's
/// estimated time and overhead (the pre-deployment profiling pass of
/// §5.3), using the shared built-in registry.
pub fn evaluate_layer(
    shape: GemmShape,
    schemes: &[Scheme],
    device: &DeviceSpec,
    calib: &Calibration,
) -> (TimeEstimate, Vec<SchemeTiming>) {
    evaluate_layer_with(registry::shared(), shape, schemes, device, calib)
}

/// [`evaluate_layer`] against an explicit registry.
pub fn evaluate_layer_with(
    registry: &SchemeRegistry,
    shape: GemmShape,
    schemes: &[Scheme],
    device: &DeviceSpec,
    calib: &Calibration,
) -> (TimeEstimate, Vec<SchemeTiming>) {
    evaluate_layer_dtype_with(registry, shape, schemes, device, calib, Dtype::F16)
}

/// [`evaluate_layer_with`] for an explicit storage dtype: the baseline
/// profile prices operand and output traffic at `dtype.bytes()` per
/// element, which moves the layer's position on the roofline — narrower
/// storage raises arithmetic intensity, so layers near the crossover can
/// flip from thread-level to global ABFT (the intensity-guided selection
/// is dtype-dependent).
pub fn evaluate_layer_dtype_with(
    registry: &SchemeRegistry,
    shape: GemmShape,
    schemes: &[Scheme],
    device: &DeviceSpec,
    calib: &Calibration,
    dtype: Dtype,
) -> (TimeEstimate, Vec<SchemeTiming>) {
    let baseline_profile = KernelProfile::baseline_dtype(shape, device, calib, dtype.bytes());
    let baseline = timing::estimate(&baseline_profile, device, calib);
    let timings = schemes
        .iter()
        .map(|&scheme| {
            let mut p = baseline_profile.clone();
            apply_scheme_with(registry, &mut p, scheme, calib);
            let estimate = timing::estimate(&p, device, calib);
            let overhead_pct = timing::overhead_percent(&baseline, &estimate);
            SchemeTiming {
                scheme,
                estimate,
                overhead_pct,
            }
        })
        .collect();
    (baseline, timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t4() -> DeviceSpec {
        DeviceSpec::t4()
    }

    fn overheads(s: u64) -> Vec<(Scheme, f64)> {
        let calib = Calibration::default();
        let (_, ts) = evaluate_layer(
            GemmShape::square(s),
            &Scheme::all_protected(),
            &t4(),
            &calib,
        );
        ts.into_iter().map(|t| (t.scheme, t.overhead_pct)).collect()
    }

    fn of(list: &[(Scheme, f64)], s: Scheme) -> f64 {
        list.iter().find(|(sc, _)| *sc == s).unwrap().1
    }

    #[test]
    fn bandwidth_bound_sizes_favor_thread_level_abft() {
        // Fig. 12, left of the CMR line: thread-level ABFT beats global
        // by a wide margin (the paper reports up to 6.5×).
        for s in [32u64, 64, 128, 256, 512] {
            let o = overheads(s);
            let one = of(&o, Scheme::ThreadLevelOneSided);
            let glob = of(&o, Scheme::GlobalAbft);
            assert!(
                one < glob,
                "size {s}: one-sided {one:.2}% !< global {glob:.2}%"
            );
        }
    }

    #[test]
    fn compute_bound_sizes_favor_global_abft() {
        // Fig. 12, right of the CMR line: global ABFT wins (up to 14×).
        for s in [1024u64, 2048] {
            let o = overheads(s);
            let one = of(&o, Scheme::ThreadLevelOneSided);
            let glob = of(&o, Scheme::GlobalAbft);
            assert!(
                glob < one,
                "size {s}: global {glob:.2}% !< one-sided {one:.2}%"
            );
            assert!(glob < 4.0, "global should be cheap at {s}: {glob:.2}%");
        }
    }

    #[test]
    fn one_sided_beats_two_sided_and_replication_when_compute_bound() {
        // §6.5: the one-sided "sweet spot".
        for s in [1024u64, 2048] {
            let o = overheads(s);
            let one = of(&o, Scheme::ThreadLevelOneSided);
            let two = of(&o, Scheme::ThreadLevelTwoSided);
            let rep = of(&o, Scheme::ReplicationSingleAcc);
            assert!(one < two, "size {s}: {one:.1} !< {two:.1}");
            assert!(two < rep, "size {s}: {two:.1} !< {rep:.1}");
        }
    }

    #[test]
    fn replication_overhead_spikes_beyond_70_percent_at_large_sizes() {
        // Fig. 12: "The overhead for replication is above 70% for the
        // final two sizes".
        for s in [1024u64, 2048] {
            let o = overheads(s);
            assert!(of(&o, Scheme::ReplicationSingleAcc) > 70.0, "size {s}");
        }
    }

    #[test]
    fn traditional_replication_is_never_faster_than_single_acc() {
        // §4: the occupancy/register cost of traditional replication.
        for s in [128u64, 512, 2048] {
            let o = overheads(s);
            assert!(
                of(&o, Scheme::ReplicationTraditional)
                    >= of(&o, Scheme::ReplicationSingleAcc) - 1e-9,
                "size {s}"
            );
        }
    }

    #[test]
    fn global_overhead_decays_with_size() {
        let calib = Calibration::default();
        let mut prev = f64::MAX;
        for s in [32u64, 128, 512, 2048] {
            let (_, ts) =
                evaluate_layer(GemmShape::square(s), &[Scheme::GlobalAbft], &t4(), &calib);
            let o = ts[0].overhead_pct;
            assert!(o < prev, "size {s}: {o} !< {prev}");
            prev = o;
        }
    }

    #[test]
    fn unprotected_profile_is_the_baseline() {
        let calib = Calibration::default();
        let (base, ts) = evaluate_layer(
            GemmShape::square(256),
            &[Scheme::Unprotected],
            &t4(),
            &calib,
        );
        assert_eq!(ts[0].estimate.total_s, base.total_s);
        assert_eq!(ts[0].overhead_pct, 0.0);
    }

    /// A dense layer: every activation element is read from storage.
    fn dense(shape: GemmShape, path: GemmPath, dtype: Dtype) -> f64 {
        host_substrate_estimate(shape, path, dtype, shape.m * shape.k)
    }

    #[test]
    fn host_substrate_estimate_orders_paths_and_sizes() {
        for s in [64u64, 256, 1024] {
            let shape = GemmShape::square(s);
            let simd = dense(shape, GemmPath::Avx2Fma, Dtype::F16);
            let scalar = dense(shape, GemmPath::Scalar, Dtype::F16);
            assert!(simd > 0.0 && simd < scalar, "size {s}: {simd} !< {scalar}");
        }
        // Monotone in problem size on either path.
        for path in [GemmPath::Avx2Fma, GemmPath::Scalar] {
            let small = dense(GemmShape::square(128), path, Dtype::F16);
            let large = dense(GemmShape::square(512), path, Dtype::F16);
            assert!(small < large);
        }
    }

    #[test]
    fn host_substrate_estimate_prices_storage_width_and_tables() {
        let simd = GemmPath::Avx2Fma;
        // Narrower activations stage fewer bytes: fp8 < fp16 at 512³.
        let shape = GemmShape::square(512);
        let fp16 = dense(shape, simd, Dtype::F16);
        let fp8 = dense(shape, simd, Dtype::Fp8E4M3);
        assert!(fp8 < fp16, "fp8 {fp8} !< fp16 {fp16}");
        // ...and by exactly the activation bytes plus the smaller decode
        // table: the weights are bound as f32 panels, so their storage
        // width is no longer part of a request's price.
        let table = |d: Dtype| d.decode_table_bytes() as f64;
        let saved = (512.0 * 512.0 + table(Dtype::F16) - table(Dtype::Fp8E4M3)) / 4.0e9;
        assert!(
            (fp16 - fp8 - saved).abs() < 1e-12,
            "{} vs {saved}",
            fp16 - fp8
        );
        // The paper's bandwidth-bound case, a batch-1 fc layer, is all
        // weight stream: fp8 storage buys it next to nothing per request.
        let fc = GemmShape::new(1, 1024, 1024);
        let (fc16, fc8) = (dense(fc, simd, Dtype::F16), dense(fc, simd, Dtype::Fp8E4M3));
        assert!(fc8 < fc16 && fc8 > 0.9 * fc16, "{fc8} vs {fc16}");
        // On a tiny GEMM the 256 KiB decode table dominates the staging
        // term, so the tableless int8 estimate undercuts bf16.
        let tiny = GemmShape::square(16);
        let bf16 = dense(tiny, simd, Dtype::Bf16);
        let int8 = dense(tiny, simd, Dtype::Int8);
        assert!(int8 < bf16, "int8 {int8} !< bf16 {bf16}");
    }

    #[test]
    fn fused_conv_repricing_drops_the_lowered_matrix_bytes() {
        // A 3×3 stride-1 conv over 64 × 56 × 56 activations: the fused
        // path reads 200,704 activation elements where the materialized
        // lowering staged m·k ≈ 1.8M — the estimate must shrink on both
        // dispatch paths, and never below the pure-flops floor.
        let shape = GemmShape::new(56 * 56, 64, 64 * 9);
        let a_src = 64 * 56 * 56;
        for path in [GemmPath::Avx2Fma, GemmPath::Scalar] {
            let fused = host_substrate_estimate(shape, path, Dtype::F16, a_src);
            let materialized = dense(shape, path, Dtype::F16);
            assert!(fused < materialized, "{path:?}: {fused} !< {materialized}");
        }
        // Narrower storage still stages fewer bytes on the fused path.
        let fp8 = host_substrate_estimate(shape, GemmPath::Avx2Fma, Dtype::Fp8E4M3, a_src);
        let fp16 = host_substrate_estimate(shape, GemmPath::Avx2Fma, Dtype::F16, a_src);
        assert!(fp8 < fp16);
    }

    #[test]
    fn fused_conv_intensity_flips_the_intensity_guided_selector() {
        use aiga_gpu::{Bound, Roofline};
        // A 128-channel 3×3 stride-1 conv at 56×56: on the materialized
        // traffic model its intensity sits below the T4's
        // compute-to-memory ratio (bandwidth bound → thread-level ABFT);
        // dropping the lowered-matrix bytes lifts it above (compute
        // bound → global ABFT). Pin both classifications and the scheme
        // picks they imply. At small spatial extents (e.g. 32×32 zoo
        // test shapes) the shift is too small to flip anything — the
        // overlap factor only dominates once m is large.
        let shape = GemmShape::new(56 * 56, 128, 128 * 9);
        let a_src = 128 * 56 * 56;
        let lowered = shape.arithmetic_intensity_fp16();
        let fused = fused_conv_intensity(shape, a_src, Dtype::F16);
        assert!(fused > 4.0 * lowered, "{fused} vs {lowered}");
        let roofline = Roofline::new(t4());
        let pick = |i: f64| match roofline.classify_intensity(i) {
            Bound::MemoryBandwidth => Scheme::ThreadLevelOneSided,
            Bound::Compute => Scheme::GlobalAbft,
        };
        assert_eq!(pick(lowered), Scheme::ThreadLevelOneSided);
        assert_eq!(pick(fused), Scheme::GlobalAbft);
    }

    #[test]
    fn dtype_changes_the_baseline_estimate_on_bandwidth_bound_layers() {
        let calib = Calibration::default();
        let shape = GemmShape::square(256);
        let (base16, _) = evaluate_layer_dtype_with(
            registry::shared(),
            shape,
            &[Scheme::Unprotected],
            &t4(),
            &calib,
            Dtype::F16,
        );
        let (base8, _) = evaluate_layer_dtype_with(
            registry::shared(),
            shape,
            &[Scheme::Unprotected],
            &t4(),
            &calib,
            Dtype::Fp8E4M3,
        );
        // 256³ is bandwidth-bound on a T4, so halving bytes/element
        // must shorten the estimated kernel time.
        assert!(base8.total_s < base16.total_s);
    }

    #[test]
    fn custom_registry_is_honored_by_evaluate_layer_with() {
        use crate::kernel::MultiChecksumKernel;
        use crate::registry::SchemeRegistry;
        use std::sync::Arc;
        let registry = SchemeRegistry::builtin().with(Arc::new(MultiChecksumKernel::new(4)));
        let calib = Calibration::default();
        let (_, ts) = evaluate_layer_with(
            &registry,
            GemmShape::square(256),
            &[Scheme::GlobalAbft, Scheme::MultiChecksum(4)],
            &t4(),
            &calib,
        );
        assert!(ts[1].overhead_pct > ts[0].overhead_pct);
    }
}
