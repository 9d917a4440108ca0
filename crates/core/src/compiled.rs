//! The typed compilation path: `Model → ModelPlan → CompiledModel`.
//!
//! A [`CompiledModel`] is one executable, protected instance of a zoo
//! network: the analytic view ([`aiga_nn::Network::to_model`]) is
//! planned by a [`Planner`] — per-layer scheme selection now sees the
//! *real* conv shapes of the zoo, not synthetic ones — and the chosen
//! schemes are bound layer by layer into a
//! [`ProtectedPipeline`] stage graph (conv nodes lower through
//! workspace-threaded im2col; pooling/ReLU/concat/residual epilogues
//! execute between the protected GEMMs).
//!
//! A [`crate::session::Session`] returns one as its view of a batch
//! bucket — the bucket's plan and that plan's pass from the session's
//! pass table; it can also be used directly for single-caller inference:
//!
//! ```
//! use aiga_core::{CompiledModel, Planner};
//! use aiga_gpu::engine::Matrix;
//! use aiga_gpu::DeviceSpec;
//! use aiga_nn::zoo;
//!
//! let net = zoo::resnet_block_net(2, 8, 8, 7);
//! let compiled = Planner::new(DeviceSpec::t4()).compile(&net);
//! assert_eq!(compiled.plan().layers.len(), 5);
//! let report = compiled.infer(&Matrix::random(2, 16 * 8 * 8, 1), None);
//! assert_eq!(report.output.len(), 2 * 10);
//! ```

use crate::pipeline::{InferenceReport, PipelineFault, ProtectedPipeline};
use crate::planner::Planner;
use crate::schemes::Scheme;
use crate::selector::ModelPlan;
use aiga_gpu::engine::{Matrix, Workspace};
use aiga_nn::Network;
use std::sync::Arc;

/// An executable network compiled against an intensity-guided plan.
pub struct CompiledModel {
    pub(crate) plan: Arc<ModelPlan>,
    pub(crate) pipeline: Arc<ProtectedPipeline>,
}

impl CompiledModel {
    /// Compiles an executable [`Network`]: plans its analytic model with
    /// `planner`, then binds each conv/fc node's real FP16 weights under
    /// the plan's chosen scheme.
    pub fn compile(planner: &Planner, net: &Network) -> Self {
        // Plan at the network's storage dtype: a bf16/fp8 network's
        // layers sit at different arithmetic intensities than fp16's,
        // so scheme selection must see the dtype the executor runs.
        let plan = planner.clone().dtype(net.dtype).plan(&net.to_model());
        let pipeline = ProtectedPipeline::compile(net, &plan.chosen_schemes());
        CompiledModel {
            plan: Arc::new(plan),
            pipeline: Arc::new(pipeline),
        }
    }

    /// The intensity-guided plan this model was compiled against.
    pub fn plan(&self) -> &ModelPlan {
        &self.plan
    }

    /// Per-layer chosen schemes, shared (cloning never reallocates):
    /// the pipeline's own list ([`ProtectedPipeline::schemes`]).
    pub fn schemes(&self) -> &Arc<[Scheme]> {
        self.pipeline.schemes()
    }

    /// The underlying executable stage graph.
    pub fn pipeline(&self) -> &ProtectedPipeline {
        &self.pipeline
    }

    /// Protected inference in a throwaway workspace.
    pub fn infer(&self, input: &Matrix, fault: Option<PipelineFault>) -> InferenceReport {
        self.pipeline.infer(input, fault)
    }

    /// Protected inference inside a caller-owned workspace — the
    /// zero-allocation serving hot path.
    pub fn infer_into(
        &self,
        input: &Matrix,
        fault: Option<PipelineFault>,
        ws: &mut Workspace,
    ) -> InferenceReport {
        self.pipeline.infer_into(input, fault, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::fnv1a;
    use aiga_gpu::DeviceSpec;
    use aiga_nn::zoo;

    #[test]
    fn compile_plans_on_the_real_zoo_conv_shapes() {
        let net = zoo::resnet_block_net(2, 16, 16, 3);
        let compiled = CompiledModel::compile(&Planner::new(DeviceSpec::t4()), &net);
        let analytic = net.to_model();
        assert_eq!(compiled.plan().layers.len(), analytic.layers.len());
        for (pl, al) in compiled.plan().layers.iter().zip(&analytic.layers) {
            assert_eq!(pl.shape, al.shape.padded_to_mma(), "{}", al.name);
        }
        assert_eq!(compiled.schemes().len(), compiled.pipeline().depth());
        assert_eq!(
            compiled.pipeline().schemes()[..],
            compiled.schemes()[..],
            "bound schemes must match the plan"
        );
    }

    #[test]
    fn lowered_mlps_reproduce_the_chain_pipeline_bytes() {
        // Recorded at the parent commit through the since-retired
        // FC-chain constructor (model, planned schemes, seed):
        // `from_mlp` must synthesize the same weights, plan and chain.
        let planner = Planner::new(DeviceSpec::t4());
        for (model, seed, features, golden) in [
            (zoo::dlrm_mlp_bottom(8), 7, 13, 0xc12b81dd21be3dfe_u64),
            (zoo::dlrm_mlp_top(8), 3, 512, 0x5fca4e95a91f7368),
        ] {
            let net = Network::from_mlp(&model, seed);
            let schemes = planner.plan(&model).chosen_schemes();
            let direct = ProtectedPipeline::compile(&net, &schemes);
            let compiled = planner.compile(&net);
            assert_eq!(compiled.schemes()[..], schemes[..], "{}", model.name);
            let input = Matrix::random(5, features, 42);
            assert_eq!(fnv1a(&direct.infer(&input, None).output), golden);
            assert_eq!(fnv1a(&compiled.infer(&input, None).output), golden);
        }
    }
}
