//! Plan serialization: `ModelPlan` ⇄ JSON.
//!
//! Plans are pre-deployment artifacts (§5.3: profiling happens once,
//! offline), so production flows want to persist them and ship them to
//! serving hosts. This module gives [`ModelPlan`] a stable JSON encoding
//! built on `aiga-util`'s round-trip-safe writer: every float is restored
//! bit-exactly, schemes are encoded as their stable kebab-case ids
//! (`Scheme`'s `Display`/`FromStr` pair), and devices by name (resolved
//! against the known device table on load).

use crate::cost::SchemeTiming;
use crate::schemes::Scheme;
use crate::selector::{LayerPlan, ModelPlan};
use aiga_gpu::occupancy::Occupancy;
use aiga_gpu::timing::TimeEstimate;
use aiga_gpu::{Bound, DeviceSpec, GemmShape};
use aiga_util::json::{Json, JsonError};

/// Error loading a serialized plan.
#[derive(Clone, Debug)]
pub struct PlanIoError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for PlanIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan load failed: {}", self.message)
    }
}

impl std::error::Error for PlanIoError {}

impl From<JsonError> for PlanIoError {
    fn from(e: JsonError) -> Self {
        PlanIoError {
            message: e.to_string(),
        }
    }
}

fn bad(message: impl Into<String>) -> PlanIoError {
    PlanIoError {
        message: message.into(),
    }
}

impl ModelPlan {
    /// Serializes the plan to compact JSON.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("version", Json::num(1.0)),
            ("model", Json::str(&self.model)),
            ("device", Json::str(self.device.name)),
            (
                "layers",
                Json::Arr(self.layers.iter().map(layer_to_json).collect()),
            ),
        ])
        .render()
    }

    /// Loads a plan serialized by [`Self::to_json`]. The device is
    /// resolved by name against [`DeviceSpec::all`]; plans for unknown
    /// devices are rejected, as are layers with an empty dimension or
    /// a chosen scheme outside their candidates, so every aggregate of
    /// a plan that loads can be priced.
    pub fn from_json(text: &str) -> Result<ModelPlan, PlanIoError> {
        let doc = Json::parse(text)?;
        let version = doc.field("version")?.as_u64()?;
        if version != 1 {
            return Err(bad(format!("unsupported plan version {version}")));
        }
        let device_name = doc.field("device")?.as_str()?;
        let device = DeviceSpec::all()
            .into_iter()
            .find(|d| d.name == device_name)
            .ok_or_else(|| bad(format!("unknown device `{device_name}`")))?;
        let layers = doc
            .field("layers")?
            .as_arr()?
            .iter()
            .map(layer_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ModelPlan {
            model: doc.field("model")?.as_str()?.to_string(),
            device,
            layers,
        })
    }
}

fn layer_to_json(l: &LayerPlan) -> Json {
    Json::obj([
        ("name", Json::str(&l.name)),
        ("shape", shape_to_json(l.shape)),
        ("intensity", Json::num(l.intensity)),
        ("chosen", Json::str(l.chosen.to_string())),
        ("baseline_s", Json::num(l.baseline_s)),
        (
            "candidates",
            Json::Arr(l.candidates.iter().map(timing_to_json).collect()),
        ),
    ])
}

fn layer_from_json(j: &Json) -> Result<LayerPlan, PlanIoError> {
    let layer = LayerPlan {
        name: j.field("name")?.as_str()?.to_string(),
        shape: shape_from_json(j.field("shape")?)?,
        intensity: j.field("intensity")?.as_f64()?,
        chosen: scheme_from_json(j.field("chosen")?)?,
        baseline_s: j.field("baseline_s")?.as_f64()?,
        candidates: j
            .field("candidates")?
            .as_arr()?
            .iter()
            .map(timing_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    };
    // Every aggregate prices a layer at its chosen scheme's timing.
    if layer.try_time_under(layer.chosen).is_none() {
        return Err(bad(format!(
            "layer `{}` chose `{}`, which is not among its candidates",
            layer.name, layer.chosen
        )));
    }
    Ok(layer)
}

fn scheme_from_json(j: &Json) -> Result<Scheme, PlanIoError> {
    j.as_str()?
        .parse::<Scheme>()
        .map_err(|e| bad(e.to_string()))
}

fn shape_to_json(s: GemmShape) -> Json {
    Json::obj([
        ("m", Json::num(s.m as f64)),
        ("n", Json::num(s.n as f64)),
        ("k", Json::num(s.k as f64)),
    ])
}

fn shape_from_json(j: &Json) -> Result<GemmShape, PlanIoError> {
    let (m, n, k) = (
        j.field("m")?.as_u64()?,
        j.field("n")?.as_u64()?,
        j.field("k")?.as_u64()?,
    );
    if m == 0 || n == 0 || k == 0 {
        return Err(bad(format!(
            "layer shape {m}x{n}x{k} has an empty dimension"
        )));
    }
    Ok(GemmShape::new(m, n, k))
}

fn timing_to_json(t: &SchemeTiming) -> Json {
    Json::obj([
        ("scheme", Json::str(t.scheme.to_string())),
        ("estimate", estimate_to_json(&t.estimate)),
        ("overhead_pct", Json::num(t.overhead_pct)),
    ])
}

fn timing_from_json(j: &Json) -> Result<SchemeTiming, PlanIoError> {
    Ok(SchemeTiming {
        scheme: scheme_from_json(j.field("scheme")?)?,
        estimate: estimate_from_json(j.field("estimate")?)?,
        overhead_pct: j.field("overhead_pct")?.as_f64()?,
    })
}

fn estimate_to_json(e: &TimeEstimate) -> Json {
    Json::obj([
        ("total_s", Json::num(e.total_s)),
        ("t_mem_s", Json::num(e.t_mem_s)),
        ("t_tc_s", Json::num(e.t_tc_s)),
        ("t_alu_s", Json::num(e.t_alu_s)),
        ("t_aux_s", Json::num(e.t_aux_s)),
        (
            "bound",
            Json::str(match e.bound {
                Bound::Compute => "compute",
                Bound::MemoryBandwidth => "memory",
            }),
        ),
        ("occupancy", occupancy_to_json(&e.occupancy)),
    ])
}

fn estimate_from_json(j: &Json) -> Result<TimeEstimate, PlanIoError> {
    Ok(TimeEstimate {
        total_s: j.field("total_s")?.as_f64()?,
        t_mem_s: j.field("t_mem_s")?.as_f64()?,
        t_tc_s: j.field("t_tc_s")?.as_f64()?,
        t_alu_s: j.field("t_alu_s")?.as_f64()?,
        t_aux_s: j.field("t_aux_s")?.as_f64()?,
        bound: match j.field("bound")?.as_str()? {
            "compute" => Bound::Compute,
            "memory" => Bound::MemoryBandwidth,
            other => return Err(bad(format!("unknown bound `{other}`"))),
        },
        occupancy: occupancy_from_json(j.field("occupancy")?)?,
    })
}

fn occupancy_to_json(o: &Occupancy) -> Json {
    Json::obj([
        ("blocks_per_sm", Json::num(o.blocks_per_sm as f64)),
        ("warps_per_sm", Json::num(o.warps_per_sm as f64)),
        ("fraction", Json::num(o.fraction)),
        ("regs_per_thread", Json::num(o.regs_per_thread as f64)),
        (
            "spilled_regs_per_thread",
            Json::num(o.spilled_regs_per_thread as f64),
        ),
    ])
}

fn occupancy_from_json(j: &Json) -> Result<Occupancy, PlanIoError> {
    Ok(Occupancy {
        blocks_per_sm: j.field("blocks_per_sm")?.as_u64()?,
        warps_per_sm: j.field("warps_per_sm")?.as_u64()?,
        fraction: j.field("fraction")?.as_f64()?,
        regs_per_thread: j.field("regs_per_thread")?.as_u64()?,
        spilled_regs_per_thread: j.field("spilled_regs_per_thread")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use aiga_nn::zoo;

    #[test]
    fn plans_round_trip_bit_exactly() {
        let plan = Planner::new(DeviceSpec::t4()).plan(&zoo::dlrm_mlp_top(256));
        let text = plan.to_json();
        let back = ModelPlan::from_json(&text).expect("reload");
        assert_eq!(back.model, plan.model);
        assert_eq!(back.device, plan.device);
        assert_eq!(back.layers.len(), plan.layers.len());
        for (a, b) in plan.layers.iter().zip(&back.layers) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.shape, b.shape);
            assert_eq!(a.chosen, b.chosen);
            assert_eq!(a.baseline_s.to_bits(), b.baseline_s.to_bits());
            assert_eq!(a.intensity.to_bits(), b.intensity.to_bits());
            for (x, y) in a.candidates.iter().zip(&b.candidates) {
                assert_eq!(x.scheme, y.scheme);
                assert_eq!(x.estimate, y.estimate);
                assert_eq!(x.overhead_pct.to_bits(), y.overhead_pct.to_bits());
            }
        }
        // Aggregations survive unchanged.
        assert_eq!(
            plan.intensity_guided_s().to_bits(),
            back.intensity_guided_s().to_bits()
        );
    }

    #[test]
    fn extension_scheme_ids_survive_the_round_trip() {
        let plan = Planner::new(DeviceSpec::t4())
            .candidates([Scheme::GlobalAbft, Scheme::MultiChecksum(3)])
            .plan(&zoo::dlrm_mlp_bottom(2048));
        let back = ModelPlan::from_json(&plan.to_json()).unwrap();
        assert!(back
            .layers
            .iter()
            .all(|l| l.try_time_under(Scheme::MultiChecksum(3)).is_some()));
    }

    #[test]
    fn unknown_devices_and_versions_are_rejected() {
        let plan = Planner::new(DeviceSpec::t4()).plan(&zoo::dlrm_mlp_bottom(1));
        let text = plan.to_json().replace("NVIDIA T4", "TPU v9");
        assert!(ModelPlan::from_json(&text).is_err());
        let text = plan.to_json().replace("\"version\":1", "\"version\":99");
        assert!(ModelPlan::from_json(&text).is_err());
    }

    #[test]
    fn garbage_fails_gracefully() {
        assert!(ModelPlan::from_json("not json").is_err());
        assert!(ModelPlan::from_json("{}").is_err());
    }
}
