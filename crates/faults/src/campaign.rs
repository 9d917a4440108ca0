//! Injection campaigns: grade a scheme's detection — and, in
//! correction mode, *repair* — coverage.

use crate::model::FaultModel;
use aiga_core::adapt::Observation;
use aiga_core::{ProtectedGemm, Scheme};
use aiga_gpu::engine::{Dtype, FaultPlan, Matrix, Workspace};
use aiga_gpu::GemmShape;

/// Classification of one injection trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// The scheme flagged the fault and the output was indeed corrupted.
    Detected,
    /// Correction mode only: the scheme localized the fault, recomputed
    /// the implicated slice, and the final output is *byte-equal* to
    /// the clean run — the end-to-end recovery oracle.
    Corrected,
    /// The output was corrupted but no flag was raised.
    SilentDataCorruption {
        /// Largest absolute output deviation from the clean run.
        max_abs_delta: f64,
    },
    /// The corruption was absorbed before the final output (e.g. a
    /// low-order mantissa flip rounded away); nothing to detect.
    Masked,
    /// A flag was raised although the output was unchanged.
    FalsePositive,
}

/// Aggregated campaign statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CampaignStats {
    /// Trials run.
    pub trials: usize,
    /// Trials classified [`Outcome::Detected`].
    pub detected: usize,
    /// Trials classified [`Outcome::Corrected`] — flagged, localized,
    /// and repaired to byte-equality (correction mode only).
    pub corrected: usize,
    /// Trials classified [`Outcome::SilentDataCorruption`].
    pub sdc: usize,
    /// Trials classified [`Outcome::Masked`].
    pub masked: usize,
    /// Trials classified [`Outcome::FalsePositive`].
    pub false_positives: usize,
    /// Largest silent corruption observed.
    pub worst_sdc: f64,
}

impl CampaignStats {
    /// Detection rate over *corrupting* trials (masked trials have
    /// nothing to detect). Corrected trials were corrupting and caught
    /// — they count on both sides.
    pub fn detection_rate(&self) -> f64 {
        let corrupting = self.detected + self.corrected + self.sdc;
        if corrupting == 0 {
            1.0
        } else {
            (self.detected + self.corrected) as f64 / corrupting as f64
        }
    }

    /// Correction rate over *caught* trials: of the faults the scheme
    /// flagged, the fraction it also repaired to byte-equality.
    pub fn correction_rate(&self) -> f64 {
        let caught = self.detected + self.corrected;
        if caught == 0 {
            0.0
        } else {
            self.corrected as f64 / caught as f64
        }
    }

    /// SDC rate over all trials.
    pub fn sdc_rate(&self) -> f64 {
        self.sdc as f64 / self.trials.max(1) as f64
    }

    fn absorb(&mut self, o: Outcome) {
        self.trials += 1;
        match o {
            Outcome::Detected => self.detected += 1,
            Outcome::Corrected => self.corrected += 1,
            Outcome::SilentDataCorruption { max_abs_delta } => {
                self.sdc += 1;
                self.worst_sdc = self.worst_sdc.max(max_abs_delta);
            }
            Outcome::Masked => self.masked += 1,
            Outcome::FalsePositive => self.false_positives += 1,
        }
    }
}

/// One trial's full record: the injected fault, the scheme's verdict
/// (as the [`Observation`] the adaptive controller consumes), and the
/// graded outcome. [`Campaign::run_faults_detailed`] returns these so
/// campaign data can drive [`aiga_core::adapt::AdaptiveController`]
/// replay directly.
#[derive(Clone, Copy, Debug)]
pub struct Trial {
    /// The injected fault.
    pub fault: FaultPlan,
    /// Scheme + verdict, in the controller's shared observation type.
    pub observation: Observation,
    /// The graded outcome.
    pub outcome: Outcome,
}

/// A fault-injection campaign against one scheme on one GEMM shape.
pub struct Campaign {
    shape: GemmShape,
    scheme: Scheme,
    dtype: Dtype,
    gemm: ProtectedGemm,
    clean: Vec<f32>,
    model: FaultModel,
    correction: bool,
}

impl Campaign {
    /// Prepares a campaign on a deterministic random problem stored in
    /// fp16 (equivalent to [`Self::new_dtype`] with [`Dtype::F16`]).
    pub fn new(shape: GemmShape, scheme: Scheme, seed: u64) -> Self {
        Self::new_dtype(shape, scheme, seed, Dtype::F16)
    }

    /// Prepares a campaign whose operands are quantized to `dtype` —
    /// the per-precision coverage sweep. The pseudo-random sample
    /// stream is shared across dtypes (and byte-identical to
    /// [`Self::new`] for [`Dtype::F16`]), so coverage differences
    /// between precisions reflect the format, not the problem.
    pub fn new_dtype(shape: GemmShape, scheme: Scheme, seed: u64, dtype: Dtype) -> Self {
        let a = Matrix::random_dtype(shape.m as usize, shape.k as usize, seed, dtype);
        let b = Matrix::random_dtype(shape.k as usize, shape.n as usize, seed + 1, dtype);
        let gemm = ProtectedGemm::new(a, b, scheme);
        let clean = gemm.run().output.c.clone();
        Campaign {
            shape,
            scheme,
            dtype,
            gemm,
            clean,
            model: FaultModel::new(shape),
            correction: false,
        }
    }

    /// Switches the campaign into *correction* mode: trials run through
    /// [`ProtectedGemm::run_corrected_into`], and a localized repair
    /// counts as [`Outcome::Corrected`] only when the repaired output is
    /// byte-equal to the clean run (anything less is graded as the SDC
    /// it would be in production).
    pub fn with_correction(mut self, on: bool) -> Self {
        self.correction = on;
        self
    }

    /// The scheme under test.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The GEMM shape under test.
    pub fn shape(&self) -> GemmShape {
        self.shape
    }

    /// The storage dtype the operands are quantized to.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Classifies one injected fault (convenience over
    /// [`Self::classify_with`] with a throwaway workspace).
    pub fn classify(&self, fault: FaultPlan) -> Outcome {
        self.classify_with(fault, &mut Workspace::new())
    }

    /// Classifies one injected fault inside a caller-supplied workspace.
    /// A warm workspace makes each trial allocation-free — campaign
    /// loops give every [`aiga_util::par_map_with`] worker its own.
    pub fn classify_with(&self, fault: FaultPlan, ws: &mut Workspace) -> Outcome {
        self.classify_detailed_with(fault, ws).outcome
    }

    /// Like [`Self::classify_with`], but returning the full [`Trial`]
    /// record (fault + scheme verdict + outcome).
    pub fn classify_detailed_with(&self, fault: FaultPlan, ws: &mut Workspace) -> Trial {
        let verdict = if self.correction {
            self.gemm.run_corrected_into(&[fault], ws)
        } else {
            self.gemm.run_into(&[fault], ws)
        };
        let out = &ws.output().c;
        // A cell struck to NaN deviates without bound (`f64::max` would
        // drop it and grade the trial as uncorrupted).
        let max_abs_delta = out
            .iter()
            .zip(&self.clean)
            .map(|(&x, &y)| (x as f64 - y as f64).abs())
            .fold(0.0f64, |worst, d| {
                if d.is_nan() {
                    f64::INFINITY
                } else {
                    worst.max(d)
                }
            });
        let outcome = if verdict.is_corrected() {
            // The repair oracle is bitwise, not tolerance-based: a
            // "corrected" output that differs in any bit from the clean
            // run is corruption the caller would silently consume.
            let byte_equal = out.len() == self.clean.len()
                && out
                    .iter()
                    .zip(&self.clean)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            if byte_equal {
                Outcome::Corrected
            } else {
                Outcome::SilentDataCorruption { max_abs_delta }
            }
        } else {
            let corrupted = max_abs_delta > 0.0;
            match (verdict.is_detected(), corrupted) {
                (true, true) => Outcome::Detected,
                (false, true) => Outcome::SilentDataCorruption { max_abs_delta },
                (false, false) => Outcome::Masked,
                (true, false) => Outcome::FalsePositive,
            }
        };
        Trial {
            fault,
            observation: Observation {
                scheme: self.scheme,
                verdict,
            },
            outcome,
        }
    }

    /// Runs `trials` uniformly random bit-flip injections in parallel.
    pub fn run_bit_flips(&self, trials: usize, seed: u64) -> CampaignStats {
        let faults: Vec<FaultPlan> = {
            let mut rng = FaultModel::rng(seed);
            (0..trials)
                .map(|_| self.model.random_bit_flip(&mut rng))
                .collect()
        };
        self.run_faults(&faults)
    }

    /// Runs a per-bit sweep: `trials_per_bit` injections at every FP32
    /// bit position, returning `(bit, stats)` pairs.
    pub fn bit_sweep(&self, trials_per_bit: usize, seed: u64) -> Vec<(u8, CampaignStats)> {
        (0..32u8)
            .map(|bit| {
                let faults: Vec<FaultPlan> = {
                    let mut rng = FaultModel::rng(seed ^ (bit as u64) << 32);
                    (0..trials_per_bit)
                        .map(|_| self.model.bit_flip_at(bit, &mut rng))
                        .collect()
                };
                (bit, self.run_faults(&faults))
            })
            .collect()
    }

    /// Runs an explicit fault list in parallel. Each worker thread
    /// serves all of its trials from one warm [`Workspace`], so after
    /// its first trial a worker's hot path performs zero heap
    /// allocations.
    pub fn run_faults(&self, faults: &[FaultPlan]) -> CampaignStats {
        aiga_util::par_map_with(faults, Workspace::new, |ws, &f| self.classify_with(f, ws))
            .into_iter()
            .fold(CampaignStats::default(), |mut s, o| {
                s.absorb(o);
                s
            })
    }

    /// Like [`Self::run_faults`], but keeping every trial's full record
    /// (fault, verdict observation, outcome) in input order.
    pub fn run_faults_detailed(&self, faults: &[FaultPlan]) -> Vec<Trial> {
        aiga_util::par_map_with(faults, Workspace::new, |ws, &f| {
            self.classify_detailed_with(f, ws)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> GemmShape {
        GemmShape::new(32, 32, 32)
    }

    #[test]
    fn high_exponent_flips_are_always_detected_by_one_sided_abft() {
        let c = Campaign::new(shape(), Scheme::ThreadLevelOneSided, 11);
        let stats = {
            let mut rng = FaultModel::rng(12);
            let m = FaultModel::new(shape());
            let faults: Vec<_> = (0..40).map(|_| m.bit_flip_at(30, &mut rng)).collect();
            c.run_faults(&faults)
        };
        assert_eq!(stats.sdc, 0, "{stats:?}");
        assert!(stats.detected > 0);
    }

    #[test]
    fn traditional_replication_has_zero_sdc() {
        // Exact comparison: every corrupting fault is caught.
        let c = Campaign::new(shape(), Scheme::ReplicationTraditional, 13);
        let stats = c.run_bit_flips(120, 14);
        assert_eq!(stats.sdc, 0, "{stats:?}");
        assert_eq!(stats.false_positives, 0);
        assert!(stats.detection_rate() == 1.0);
    }

    #[test]
    fn nan_corruption_is_graded_as_corruption() {
        // Bit 30 of an accumulator in [1, 2) lands on the all-ones
        // exponent: the output cell becomes NaN. That is corruption —
        // caught under a protecting scheme, silent without one — never
        // "masked" or a false positive.
        let nan = aiga_gpu::engine::FaultPlan {
            row: 3,
            col: 5,
            after_step: u64::MAX,
            kind: aiga_gpu::engine::FaultKind::SetValue(f32::NAN),
        };
        for scheme in [Scheme::ThreadLevelOneSided, Scheme::GlobalAbft] {
            let c = Campaign::new(shape(), scheme, 23);
            assert_eq!(c.classify(nan), Outcome::Detected, "{scheme}");
        }
        let c = Campaign::new(shape(), Scheme::Unprotected, 23);
        assert_eq!(
            c.classify(nan),
            Outcome::SilentDataCorruption {
                max_abs_delta: f64::INFINITY
            }
        );
    }

    #[test]
    fn unprotected_detects_nothing() {
        let c = Campaign::new(shape(), Scheme::Unprotected, 15);
        let stats = c.run_bit_flips(60, 16);
        assert_eq!(stats.detected, 0);
        assert_eq!(stats.false_positives, 0);
        assert!(stats.sdc > 0, "some flips must corrupt: {stats:?}");
    }

    #[test]
    fn abft_sdc_is_bounded_by_the_tolerance_floor() {
        // Any SDC a tolerance-based checker misses must be smaller than
        // the detection threshold's scale — low-order mantissa noise.
        let c = Campaign::new(shape(), Scheme::GlobalAbft, 17);
        let stats = c.run_bit_flips(150, 18);
        assert!(stats.detected > 0);
        // The worst silent corruption is tiny relative to output scale
        // (outputs are O(10) for K=32 inputs in [-2,2]).
        assert!(stats.worst_sdc < 1.0, "{stats:?}");
    }

    #[test]
    fn mantissa_lsb_flips_are_mostly_masked_or_tiny() {
        let c = Campaign::new(shape(), Scheme::ThreadLevelOneSided, 19);
        let sweep = c.bit_sweep(10, 20);
        let (bit0, stats0) = sweep[0];
        assert_eq!(bit0, 0);
        assert_eq!(
            stats0.detected, 0,
            "LSB flips shouldn't trip ABFT: {stats0:?}"
        );
        assert!(stats0.worst_sdc < 1e-2);
        // High exponent bits, by contrast, are caught whenever they land.
        let (_, stats30) = sweep[30];
        assert_eq!(stats30.sdc, 0, "{stats30:?}");
    }

    #[test]
    fn strongest_schemes_have_zero_sdc_in_every_dtype() {
        // The per-precision acceptance sweep: under each scheme
        // family's strongest member, no injected fault may corrupt the
        // output silently — in fp16, bf16, or fp8. Replication compares
        // exactly, so it faces unrestricted random flips; the
        // tolerance-based ABFT families face additive faults well above
        // every dtype's detection floor (a miss would be a real SDC,
        // not sub-threshold rounding noise — bf16's coarser grid raises
        // its floor ~4x over fp16's, so a fixed large magnitude keeps
        // the oracle meaningful across precisions).
        let strongest = [
            Scheme::ReplicationTraditional, // replication family
            Scheme::ThreadLevelTwoSided,    // thread-level ABFT family
            Scheme::MultiChecksum(3),       // global ABFT family
        ];
        for dtype in [Dtype::F16, Dtype::Bf16, Dtype::Fp8E4M3] {
            for scheme in strongest {
                let c = Campaign::new_dtype(shape(), scheme, 31, dtype);
                assert_eq!(c.dtype(), dtype);
                let stats = if scheme == Scheme::ReplicationTraditional {
                    c.run_bit_flips(60, 32)
                } else {
                    let m = FaultModel::new(shape());
                    let mut rng = FaultModel::rng(33);
                    let faults: Vec<_> = (0..40).map(|_| m.additive(64.0, &mut rng)).collect();
                    c.run_faults(&faults)
                };
                assert_eq!(stats.sdc, 0, "{dtype} {scheme:?}: {stats:?}");
                assert_eq!(stats.false_positives, 0, "{dtype} {scheme:?}: {stats:?}");
                assert!(stats.detected > 0, "{dtype} {scheme:?}: {stats:?}");
            }
        }
    }

    #[test]
    fn fp16_dtype_campaign_matches_the_legacy_constructor() {
        // `new_dtype(.., F16)` must grade every trial exactly as `new`
        // does: same operand bytes, same verdicts, same outcomes.
        let a = Campaign::new(shape(), Scheme::ThreadLevelOneSided, 21);
        let b = Campaign::new_dtype(shape(), Scheme::ThreadLevelOneSided, 21, Dtype::F16);
        let m = FaultModel::new(shape());
        let mut rng = FaultModel::rng(22);
        for _ in 0..30 {
            let f = m.random_bit_flip(&mut rng);
            assert_eq!(a.classify(f), b.classify(f), "{f:?}");
        }
    }

    #[test]
    fn stats_rates_are_consistent() {
        let mut s = CampaignStats::default();
        s.absorb(Outcome::Detected);
        s.absorb(Outcome::SilentDataCorruption { max_abs_delta: 0.5 });
        s.absorb(Outcome::Masked);
        assert_eq!(s.trials, 3);
        assert!((s.detection_rate() - 0.5).abs() < 1e-12);
        assert!((s.sdc_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.worst_sdc, 0.5);
    }
}
