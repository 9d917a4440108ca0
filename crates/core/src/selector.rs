//! Intensity-guided ABFT plans (§5.3): the per-layer and whole-model
//! outcome of selection between global and thread-level ABFT.
//!
//! Planning itself lives in [`crate::planner::Planner`] — a builder that
//! replaces the old `ModelPlan::build`/`build_with` pair. This module
//! holds the plan data structures and their aggregation metrics (the
//! §6.2 whole-model overheads).

use crate::cost::SchemeTiming;
use crate::schemes::Scheme;
use aiga_gpu::{DeviceSpec, GemmShape};

/// How the selector chooses a scheme for a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionMode {
    /// Empirical profiling: pick the scheme with the lowest measured
    /// (here: modeled) execution time — the paper's deployed mode.
    Profiled,
    /// Analytical: thread-level ABFT when the layer's arithmetic
    /// intensity is below the device CMR, global ABFT otherwise (§7.2).
    Analytical,
}

/// Error returned when a plan is asked about a scheme that was never
/// profiled as a candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemeNotProfiled {
    /// The scheme asked about.
    pub scheme: Scheme,
    /// The layer the question was about.
    pub layer: String,
    /// The schemes that *were* profiled for that layer.
    pub profiled: Vec<Scheme>,
}

impl std::fmt::Display for SchemeNotProfiled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scheme `{}` was not profiled for layer `{}` (profiled candidates: {}); \
             add it to Planner::candidates before planning",
            self.scheme,
            self.layer,
            self.profiled
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for SchemeNotProfiled {}

/// The per-layer outcome of intensity-guided selection.
#[derive(Clone, Debug)]
pub struct LayerPlan {
    /// Layer name.
    pub name: String,
    /// Padded GEMM shape.
    pub shape: GemmShape,
    /// FP16 arithmetic intensity of the layer.
    pub intensity: f64,
    /// The scheme intensity-guided ABFT chose.
    pub chosen: Scheme,
    /// Unprotected execution time (seconds).
    pub baseline_s: f64,
    /// Candidate timings (same order as the candidate list).
    pub candidates: Vec<SchemeTiming>,
}

impl LayerPlan {
    /// Time under the chosen scheme.
    pub fn chosen_s(&self) -> f64 {
        self.time_under(self.chosen)
    }

    /// Time under a specific scheme, if it was among the candidates.
    pub fn try_time_under(&self, scheme: Scheme) -> Option<f64> {
        self.candidates
            .iter()
            .find(|t| t.scheme == scheme)
            .map(|t| t.estimate.total_s)
    }

    /// Time under a specific scheme; panics with the full candidate list
    /// if the scheme was not profiled (use [`Self::try_time_under`] for a
    /// non-panicking variant).
    pub fn time_under(&self, scheme: Scheme) -> f64 {
        self.try_time_under(scheme)
            .unwrap_or_else(|| panic!("{}", self.not_profiled(scheme)))
    }

    fn not_profiled(&self, scheme: Scheme) -> SchemeNotProfiled {
        SchemeNotProfiled {
            scheme,
            layer: self.name.clone(),
            profiled: self.candidates.iter().map(|t| t.scheme).collect(),
        }
    }
}

/// The whole-model plan produced by intensity-guided ABFT.
#[derive(Clone, Debug)]
pub struct ModelPlan {
    /// Model name.
    pub model: String,
    /// Device it was planned for.
    pub device: DeviceSpec,
    /// Per-layer plans in execution order.
    pub layers: Vec<LayerPlan>,
}

impl ModelPlan {
    /// Total unprotected time (sum of per-layer times, the §6.2
    /// aggregation: layers execute sequentially).
    pub fn baseline_s(&self) -> f64 {
        self.layers.iter().map(|l| l.baseline_s).sum()
    }

    /// Total time with one fixed scheme on every layer, or an error
    /// naming the first layer where that scheme was never profiled.
    pub fn try_fixed_scheme_s(&self, scheme: Scheme) -> Result<f64, SchemeNotProfiled> {
        self.layers
            .iter()
            .map(|l| {
                l.try_time_under(scheme)
                    .ok_or_else(|| l.not_profiled(scheme))
            })
            .sum()
    }

    /// Total time with one fixed scheme on every layer; panics with the
    /// candidate list if the scheme was not profiled (use
    /// [`Self::try_fixed_scheme_s`] for a non-panicking variant).
    pub fn fixed_scheme_s(&self, scheme: Scheme) -> f64 {
        self.try_fixed_scheme_s(scheme)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Total time under intensity-guided selection.
    pub fn intensity_guided_s(&self) -> f64 {
        self.layers.iter().map(|l| l.chosen_s()).sum()
    }

    /// Whole-model percentage overhead of a fixed scheme.
    pub fn fixed_scheme_overhead_pct(&self, scheme: Scheme) -> f64 {
        (self.fixed_scheme_s(scheme) - self.baseline_s()) / self.baseline_s() * 100.0
    }

    /// Whole-model percentage overhead of intensity-guided ABFT.
    pub fn intensity_guided_overhead_pct(&self) -> f64 {
        (self.intensity_guided_s() - self.baseline_s()) / self.baseline_s() * 100.0
    }

    /// How many layers chose a thread-level scheme.
    pub fn thread_level_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.chosen.is_thread_level())
            .count()
    }

    /// Per-layer chosen schemes, in execution order.
    pub fn chosen_schemes(&self) -> Vec<Scheme> {
        self.layers.iter().map(|l| l.chosen).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::planner::Planner;
    use crate::schemes::Scheme;
    use aiga_gpu::DeviceSpec;
    use aiga_nn::zoo;

    #[test]
    fn try_time_under_reports_unprofiled_schemes_as_none() {
        let plan = Planner::new(DeviceSpec::t4()).plan(&zoo::dlrm_mlp_bottom(1));
        let layer = &plan.layers[0];
        assert!(layer.try_time_under(Scheme::GlobalAbft).is_some());
        assert!(layer
            .try_time_under(Scheme::ReplicationTraditional)
            .is_none());
        let err = plan
            .try_fixed_scheme_s(Scheme::ReplicationTraditional)
            .unwrap_err();
        assert_eq!(err.scheme, Scheme::ReplicationTraditional);
        assert!(err.profiled.contains(&Scheme::GlobalAbft));
        let msg = err.to_string();
        assert!(msg.contains("replication-traditional"), "{msg}");
        assert!(msg.contains("Planner::candidates"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "was not profiled")]
    fn time_under_panics_with_a_clear_message() {
        let plan = Planner::new(DeviceSpec::t4()).plan(&zoo::dlrm_mlp_bottom(1));
        plan.layers[0].time_under(Scheme::ThreadLevelTwoSided);
    }
}
