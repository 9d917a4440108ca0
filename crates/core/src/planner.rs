//! The builder-style planning front-end.
//!
//! `Planner` owns everything intensity-guided ABFT needs to decide a
//! deployment — device, calibration, candidate schemes and selection
//! mode — and produces [`ModelPlan`]s (one per input size a deployment
//! expects: [`crate::Session`] plans each batch bucket on first use,
//! §7.3):
//!
//! ```
//! use aiga_core::{Planner, SelectionMode, Scheme};
//! use aiga_gpu::DeviceSpec;
//! use aiga_nn::zoo;
//!
//! let plan = Planner::new(DeviceSpec::t4())
//!     .candidates([Scheme::GlobalAbft, Scheme::ThreadLevelOneSided])
//!     .mode(SelectionMode::Profiled)
//!     .plan(&zoo::dlrm_mlp_bottom(32));
//! assert_eq!(plan.layers.len(), 3);
//! ```

use crate::cost::evaluate_layer_dtype;
use crate::schemes::Scheme;
use crate::selector::{LayerPlan, ModelPlan, SelectionMode};
use aiga_dtype::Dtype;
use aiga_gpu::timing::Calibration;
use aiga_gpu::{Bound, DeviceSpec, Roofline};
use aiga_nn::Model;

/// Builder for intensity-guided deployment plans.
#[derive(Clone)]
pub struct Planner {
    device: DeviceSpec,
    calib: Calibration,
    candidates: Vec<Scheme>,
    mode: SelectionMode,
    dtype: Dtype,
}

impl Planner {
    /// A planner for `device` with the paper's defaults: default
    /// calibration, the §5.3 candidate pair (global + one-sided
    /// thread-level ABFT) and profiled selection.
    pub fn new(device: DeviceSpec) -> Self {
        Planner {
            device,
            calib: Calibration::default(),
            candidates: Scheme::intensity_guided_candidates().to_vec(),
            mode: SelectionMode::Profiled,
            dtype: Dtype::F16,
        }
    }

    /// Replaces the timing-model calibration.
    pub fn calibration(mut self, calib: Calibration) -> Self {
        self.calib = calib;
        self
    }

    /// Replaces the candidate scheme set the selector chooses among.
    pub fn candidates(mut self, candidates: impl IntoIterator<Item = Scheme>) -> Self {
        self.candidates = candidates.into_iter().collect();
        assert!(
            !self.candidates.is_empty(),
            "at least one candidate scheme required"
        );
        self
    }

    /// Replaces the selection mode (profiled vs. §7.2 analytical).
    pub fn mode(mut self, mode: SelectionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the storage dtype the model will execute in. Narrower
    /// storage halves (fp8/int8) or keeps (bf16) the bytes moved per
    /// element, which raises each layer's arithmetic intensity and can
    /// flip layers near the roofline crossover from thread-level to
    /// global ABFT — scheme selection is dtype-aware in both modes.
    pub fn dtype(mut self, dtype: Dtype) -> Self {
        self.dtype = dtype;
        self
    }

    /// The device this planner targets.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The calibration in use.
    pub fn calib(&self) -> &Calibration {
        &self.calib
    }

    /// The candidate schemes, in priority order.
    pub fn candidate_schemes(&self) -> &[Scheme] {
        &self.candidates
    }

    /// The storage dtype plans are priced for.
    pub fn storage_dtype(&self) -> Dtype {
        self.dtype
    }

    /// Plans one model: profiles every layer under every candidate and
    /// selects per layer (§5.3).
    pub fn plan(&self, model: &Model) -> ModelPlan {
        let roofline = Roofline::new(self.device.clone());
        let layers = model
            .layers
            .iter()
            .map(|layer| {
                let shape = layer.shape.padded_to_mma();
                let (baseline, timings) = evaluate_layer_dtype(
                    shape,
                    &self.candidates,
                    &self.device,
                    &self.calib,
                    self.dtype,
                );
                let intensity = shape.arithmetic_intensity(self.dtype.bytes());
                let chosen = match self.mode {
                    SelectionMode::Profiled => {
                        timings
                            .iter()
                            .min_by(|a, b| a.estimate.total_s.total_cmp(&b.estimate.total_s))
                            .expect("at least one candidate")
                            .scheme
                    }
                    SelectionMode::Analytical => match roofline.classify_intensity(intensity) {
                        Bound::MemoryBandwidth => *self
                            .candidates
                            .iter()
                            .find(|s| s.is_thread_level())
                            .unwrap_or(&self.candidates[0]),
                        Bound::Compute => *self
                            .candidates
                            .iter()
                            .find(|s| !s.is_thread_level())
                            .unwrap_or(&self.candidates[0]),
                    },
                };
                LayerPlan {
                    name: layer.name.clone(),
                    shape,
                    intensity,
                    chosen,
                    baseline_s: baseline.total_s,
                    candidates: timings,
                }
            })
            .collect();
        ModelPlan {
            model: model.name.clone(),
            device: self.device.clone(),
            layers,
        }
    }

    /// Compiles an executable network end to end: plan its analytic
    /// model (per-layer selection over the real zoo conv shapes), then
    /// bind every conv/fc node under its chosen scheme. Convenience
    /// over [`crate::compiled::CompiledModel::compile`].
    pub fn compile(&self, net: &aiga_nn::Network) -> crate::compiled::CompiledModel {
        crate::compiled::CompiledModel::compile(self, net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiga_nn::zoo;

    fn plan(model: &Model) -> ModelPlan {
        Planner::new(DeviceSpec::t4()).plan(model)
    }

    #[test]
    fn intensity_guided_never_loses_to_either_fixed_scheme() {
        // By construction (§6.2): "intensity-guided ABFT, by design,
        // always performs at least as well as global ABFT".
        for model in [
            zoo::resnet50(1, 224, 224),
            zoo::dlrm_mlp_bottom(1),
            zoo::coral(64),
        ] {
            let p = plan(&model);
            let ig = p.intensity_guided_s();
            assert!(
                ig <= p.fixed_scheme_s(Scheme::GlobalAbft) + 1e-15,
                "{}",
                model.name
            );
            assert!(
                ig <= p.fixed_scheme_s(Scheme::ThreadLevelOneSided) + 1e-15,
                "{}",
                model.name
            );
        }
    }

    #[test]
    fn low_intensity_models_choose_thread_level_everywhere() {
        let p = plan(&zoo::dlrm_mlp_bottom(1));
        assert_eq!(p.thread_level_layer_count(), p.layers.len());
    }

    #[test]
    fn mixed_models_split_their_choices() {
        // ResNet-50 contains both bandwidth- and compute-bound layers
        // (§3.2/Fig. 5), so intensity-guided ABFT should mix schemes.
        let p = plan(&zoo::resnet50(1, zoo::HD.0, zoo::HD.1));
        let thread = p.thread_level_layer_count();
        assert!(thread > 0, "no thread-level layers chosen");
        assert!(thread < p.layers.len(), "no global layers chosen");
    }

    #[test]
    fn profiled_and_analytical_modes_mostly_agree() {
        // §7.2: intensity relative to CMR predicts the winner; the two
        // modes should coincide on a large majority of layers.
        let model = zoo::resnet50(1, zoo::HD.0, zoo::HD.1);
        let profiled = Planner::new(DeviceSpec::t4()).plan(&model);
        let analytical = Planner::new(DeviceSpec::t4())
            .mode(SelectionMode::Analytical)
            .plan(&model);
        let agree = profiled
            .layers
            .iter()
            .zip(&analytical.layers)
            .filter(|(a, b)| a.chosen == b.chosen)
            .count();
        let frac = agree as f64 / profiled.layers.len() as f64;
        // Launch-overhead effects make small layers profile differently
        // than the pure roofline prediction, so agreement is high but not
        // total — the same reason the paper prefers empirical profiling.
        assert!(frac >= 0.6, "agreement only {frac:.2}");
    }

    #[test]
    fn overhead_percentages_are_consistent() {
        let p = plan(&zoo::dlrm_mlp_top(1));
        let ig = p.intensity_guided_overhead_pct();
        let glob = p.fixed_scheme_overhead_pct(Scheme::GlobalAbft);
        assert!(ig >= 0.0 && glob >= ig, "ig {ig}%, global {glob}%");
    }

    #[test]
    fn extension_candidates_plan_without_selector_changes() {
        // The §2.4 multi-checksum extension participates in planning
        // like any other id.
        let p = Planner::new(DeviceSpec::t4())
            .candidates([
                Scheme::GlobalAbft,
                Scheme::ThreadLevelOneSided,
                Scheme::MultiChecksum(2),
            ])
            .plan(&zoo::dlrm_mlp_top(64));
        for layer in &p.layers {
            assert_eq!(layer.candidates.len(), 3);
            // Extra checksum rounds cost at least as much as one round.
            assert!(
                layer.time_under(Scheme::MultiChecksum(2))
                    >= layer.time_under(Scheme::GlobalAbft) - 1e-15
            );
        }
    }

    #[test]
    fn fp8_storage_flips_scheme_choice_on_a_crossover_layer() {
        // A 512³ MLP-Top layer sits below the T4 crossover (CMR ≈ 203)
        // in fp16 (AI ≈ 171 → thread-level ABFT) but above it in fp8
        // (AI ≈ 341 → global ABFT): halving the storage width doubles
        // the arithmetic intensity, so the intensity-guided selector
        // must flip its choice with the dtype.
        use aiga_dtype::Dtype;
        let model = zoo::dlrm_mlp_top(512);
        for mode in [SelectionMode::Analytical, SelectionMode::Profiled] {
            let fp16 = Planner::new(DeviceSpec::t4()).mode(mode).plan(&model);
            let fp8 = Planner::new(DeviceSpec::t4())
                .mode(mode)
                .dtype(Dtype::Fp8E4M3)
                .plan(&model);
            let flipped = fp16
                .layers
                .iter()
                .zip(&fp8.layers)
                .any(|(a, b)| a.chosen != b.chosen);
            assert!(flipped, "{mode:?}: no layer changed scheme under fp8");
            assert!(
                fp8.layers.iter().zip(&fp16.layers).all(|(l8, l16)| {
                    l8.intensity > l16.intensity * 1.9 && l8.intensity < l16.intensity * 2.1
                }),
                "fp8 should about double every layer's arithmetic intensity"
            );
        }
    }

    #[test]
    fn selection_changes_with_input_size() {
        // §7.3 / §6.4.2: MLP-Top flips from all-thread-level at batch 1
        // to (partly) global at batch 2048 as intensity rises past the
        // crossover.
        let small = plan(&zoo::dlrm_mlp_top(1));
        let large = plan(&zoo::dlrm_mlp_top(2048));
        assert_eq!(small.thread_level_layer_count(), small.layers.len());
        assert!(
            large.thread_level_layer_count() < large.layers.len(),
            "batch 2048 should move some layers to global ABFT"
        );
    }
}
