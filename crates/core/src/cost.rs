//! Per-scheme kernel cost profiles for the timing model.
//!
//! This is where Table 1 meets the `aiga-gpu` timing model — but the
//! per-scheme arithmetic itself is [`Scheme::apply_cost`]. The functions
//! here are the evaluation loop: take a baseline profile, let each
//! scheme add its costs, and estimate the result.
//!
//! Unit conventions: one MMA participation is 8 Tensor-Core FLOPs (a
//! thread's share of one `m16n8k8` per K-step pair); one checksum op is
//! an `HADD2`-class packed instruction — two FP16 adds, but charged one
//! flop-equivalent of the packed-math peak because it partially
//! dual-issues into Tensor-Core pipeline gaps (calibrated). See
//! [`crate::kernel::FLOPS_PER_MMA_PARTICIPATION`] and
//! [`crate::kernel::FLOPS_PER_CHECKSUM_OP`].

use crate::schemes::Scheme;
use aiga_dtype::Dtype;
use aiga_gpu::timing::{self, Calibration, KernelProfile, TimeEstimate};
use aiga_gpu::{DeviceSpec, GemmShape};

pub use crate::kernel::{FLOPS_PER_CHECKSUM_OP, FLOPS_PER_MMA_PARTICIPATION};

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

/// Evaluates a set of schemes on one fp16 GEMM shape, returning each
/// scheme's estimated time and overhead (the pre-deployment profiling
/// pass of §5.3).
pub fn evaluate_layer(
    shape: GemmShape,
    schemes: &[Scheme],
    device: &DeviceSpec,
    calib: &Calibration,
) -> (TimeEstimate, Vec<SchemeTiming>) {
    evaluate_layer_dtype(shape, schemes, device, calib, Dtype::F16)
}

/// [`evaluate_layer`] for an explicit storage dtype: the baseline
/// profile prices operand and output traffic at `dtype.bytes()` per
/// element, which moves the layer's position on the roofline — narrower
/// storage raises arithmetic intensity, so layers near the crossover can
/// flip from thread-level to global ABFT (the intensity-guided selection
/// is dtype-dependent).
pub fn evaluate_layer_dtype(
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
            scheme.apply_cost(&mut p, calib);
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

    #[test]
    fn dtype_changes_the_baseline_estimate_on_bandwidth_bound_layers() {
        let calib = Calibration::default();
        let shape = GemmShape::square(256);
        let (base16, _) =
            evaluate_layer_dtype(shape, &[Scheme::Unprotected], &t4(), &calib, Dtype::F16);
        let (base8, _) =
            evaluate_layer_dtype(shape, &[Scheme::Unprotected], &t4(), &calib, Dtype::Fp8E4M3);
        // 256³ is bandwidth-bound on a T4, so halving bytes/element
        // must shorten the estimated kernel time.
        assert!(base8.total_s < base16.total_s);
    }
}
