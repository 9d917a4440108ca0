//! The protected inference pipeline (§2.5 flow), generalized from MLP
//! chains to compiled network graphs.
//!
//! A [`ProtectedPipeline`] executes a sequence of *stages* inside one
//! [`Workspace`]. A stage is either
//!
//! - a **protected GEMM** — a fully-connected layer, or a convolution
//!   executed as an implicit GEMM (§2.1: convolutions are protected *as*
//!   matrix multiplications): the engine's panel staging gathers the
//!   im2col lowering directly from the NCHW activations through a
//!   zero-copy [`aiga_gpu::MatrixLayout`] view, then runs the layer's
//!   [`BoundGemm`], with an optional fused ReLU on the write-back; or
//! - **epilogue glue** between the GEMMs — max/avg pooling, global
//!   average pooling, channel concatenation, residual addition — the
//!   non-GEMM nodes of an executable [`Network`].
//!
//! Stages read and write FP16 value slots owned by the workspace
//! (branch-and-merge topologies like SqueezeNet's Fire modules and
//! ResNet's residual blocks execute directly), so a warm workspace
//! serves every request with **zero steady-state heap allocations** on
//! the engine path.
//!
//! A pass is a plain loop over the stages in stage order (a
//! topological order of the graph): one stage at a time, never two side
//! by side. What fans out is *inside* a stage, as a region of the
//! process's fork-join team (`aiga_util::team`): a GEMM whose one-core
//! time pays for it — enough FLOPs or enough streamed weight bytes
//! (`aiga_gpu::engine::BLOCK_PAR_MIN_{FLOPS,BYTES}`) — runs its stripe
//! and block tasks there — because the paper selects a scheme *per
//! layer GEMM*, so the GEMM is the unit that owns the cores — and a
//! conv's tasks also write their blocks of the stage's slot (the NCHW
//! transpose, fused ReLU, encode) as they finish them — the output's
//! only copy, and for a Fire module's expands straight into their
//! concat's value, so that concat runs as no stage (`concat_places`); a
//! pooling stage large enough spreads its planes the same way
//! (`pool_members`). An fc's write-back (a straight encode), any other
//! concat, slice, gather, add and the interaction are copies and a few
//! thousand flops, and stay on the calling thread. Running independent
//! branches (a Fire module's 1×1/3×3 expand pair) side by side instead
//! measured slower than this loop: the pair shares `m` and `n` with `k = s`
//! against `9s`, so overlapping them caps at 1.11×, and it took the
//! stripe fan-out away from the 3×3, the layer large enough to use it.
//!
//! Between two GEMMs a value crosses as slices: a slot is decoded and
//! encoded a run at a time (`Dtype::decode_slice` / `encode_slice`),
//! never a code at a time — the one per-element codec call left is the
//! embedding gather's index, one per row and table (CI greps for it).
//!
//! There is one construction path: [`ProtectedPipeline::compile`]
//! builds the stage graph from an [`aiga_nn::Network`] whose conv/fc
//! nodes carry their FP16 weights — the execution half of the
//! `Model → ModelPlan → CompiledModel` path (see
//! [`crate::compiled::CompiledModel`]). An analytic MLP chain gets
//! there through [`Network::from_mlp`]. [`ProtectedPipeline::rebind`]
//! binds other schemes over a compiled graph's weights without a
//! second compile.
//!
//! Every GEMM stage — fc or conv — executes through one function
//! (`run_gemm`) and the [`BoundGemm`] it holds inline (weights bound
//! once at construction: packed into the engine's panel form, global
//! ABFT's offline checksums summed — the compiled stage keeps no other
//! copy of them, and every request, team member and session shard reads
//! that one): one [`BoundGemm::run_into`], and [`BoundGemm::correct_into`]
//! in recovery mode. The pipeline contains no per-scheme dispatch and
//! serves extension schemes like `Scheme::MultiChecksum` unchanged.
//!
//! This is also the one convolution path: a single protected conv is a
//! one-conv [`Network`] compiled here, and its faults are addressed as
//! [`PipelineFault`] documents.
//!
//! A pass runs at the request's own row count: every stage — GEMM,
//! write-back, pool, gather — covers `input.rows` images, the first
//! stage reads the caller's matrix where it lies, and the last stage's
//! output is the reply. The compiled network's batch is only the row
//! cap (a rebind keeps it); nothing is padded up to it.

use crate::kernel::{BoundGemm, FaultSite, Verdict};
use crate::schemes::Scheme;
use aiga_dtype::{Dtype, F16};
use aiga_gpu::engine::{
    emit, emit_output, encode_output, pool, simd, Dest, EmitLayout, FaultPlan, GemmOutput,
    Im2colView, Matrix, MatrixView, Workspace,
};
use aiga_nn::conv::filters_to_matrix;
use aiga_nn::graph::{embedding_index, Network, NodeOp, NodeRef, PoolKind, PoolParams};
use aiga_util::team;
use std::sync::Arc;
use std::time::Instant;

/// A fault targeted at one GEMM layer of the pipeline.
///
/// `layer` indexes the conv/fc layers in execution order (the same
/// order as the analytic model and the plan). For convolutions the
/// fault's `row`/`col` address the *lowered* GEMM output: row
/// `(n·Ho + oy)·Wo + ox`, column `c_out`.
#[derive(Clone, Copy, Debug)]
pub struct PipelineFault {
    /// Index of the GEMM layer to corrupt.
    pub layer: usize,
    /// The fault to inject there.
    pub fault: FaultPlan,
}

/// One detection event during protected inference.
#[derive(Clone, Debug)]
pub struct LayerDetection {
    /// Index of the GEMM layer that flagged the fault.
    pub layer: usize,
    /// Layer name.
    pub name: String,
    /// Scheme that made the detection.
    pub scheme: Scheme,
    /// Residual of the failed check.
    pub residual: f64,
}

/// One in-place repair event during protected inference (recovery mode):
/// the layer's scheme localized the fault and recomputed only the
/// implicated cells, so the pass continued with a clean stage output.
#[derive(Clone, Debug)]
pub struct LayerCorrection {
    /// Index of the GEMM layer that was repaired.
    pub layer: usize,
    /// Layer name.
    pub name: String,
    /// Scheme that localized and repaired the fault.
    pub scheme: Scheme,
    /// Where the fault was localized.
    pub site: FaultSite,
    /// True when the repair was a replication majority-vote resolution.
    pub vote: bool,
    /// Residual of the original detection.
    pub residual: f64,
}

/// Result of one protected inference pass.
#[derive(Clone, Debug)]
pub struct InferenceReport {
    /// FP32 output of the final stage, flattened per image (for GEMM
    /// finals: pre-activation unless the layer fuses a ReLU; for
    /// pooling finals: the pooled activations).
    pub output: Vec<f32>,
    /// All detections raised along the way (faults that were *not*
    /// repaired — in recovery mode a corrected layer records a
    /// [`LayerCorrection`] instead).
    pub detections: Vec<LayerDetection>,
    /// All in-place repairs made along the way (recovery mode only).
    pub corrections: Vec<LayerCorrection>,
}

impl InferenceReport {
    /// True if any layer flagged a fault that was **not** repaired.
    pub fn fault_detected(&self) -> bool {
        !self.detections.is_empty()
    }

    /// True if any layer localized and repaired a fault in place.
    pub fn fault_corrected(&self) -> bool {
        !self.corrections.is_empty()
    }
}

/// Where one pass's wall time went, by kind of stage, in nanoseconds —
/// one `Instant` pair around each stage of
/// [`ProtectedPipeline::infer_timed_into`]. The four sum to the pass but
/// for the loop's own bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Protected GEMMs (conv and fc), write-back included.
    pub gemm_ns: u64,
    /// Spatial and global pooling.
    pub pool_ns: u64,
    /// Embedding gathers and the pairwise interaction.
    pub gather_ns: u64,
    /// Concat, slice and residual add. A concat its producers write in
    /// place (a Fire module's) runs as no stage and adds nothing here.
    pub other_ns: u64,
}

impl StageTimes {
    /// The counter `op`'s stages are charged to.
    fn of(&mut self, op: &StageOp) -> &mut u64 {
        match op {
            StageOp::Gemm(_) => &mut self.gemm_ns,
            StageOp::Pool { .. } | StageOp::GlobalAvgPool { .. } => &mut self.pool_ns,
            StageOp::EmbeddingBag { .. } | StageOp::Interact { .. } => &mut self.gather_ns,
            StageOp::Concat { .. } | StageOp::Add { .. } | StageOp::Slice { .. } => {
                &mut self.other_ns
            }
        }
    }
}

/// Where a stage reads a value from.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// The caller's request matrix, read in place.
    Input,
    /// The output slot of an earlier stage.
    Stage(usize),
}

/// A protected GEMM stage: fc directly, or conv as an implicit GEMM.
#[derive(Clone)]
struct GemmStage {
    bound: BoundGemm,
    /// The conv geometry its activation matrix is lowered through.
    lowering: Option<Im2colView>,
    relu: bool,
    /// Index among the conv/fc layers in execution order (the
    /// fault-targeting and detection-report numbering).
    layer: usize,
}

#[derive(Clone)]
enum StageOp {
    Gemm(GemmStage),
    /// Spatial pooling.
    Pool {
        params: PoolParams,
        in_dims: (usize, usize, usize),
    },
    /// Global average pooling to `1 × 1`.
    GlobalAvgPool {
        in_dims: (usize, usize, usize),
    },
    /// Channel concatenation; `part_features` holds each input's
    /// flattened per-image width.
    Concat {
        part_features: Vec<usize>,
    },
    /// Element-wise residual addition.
    Add {
        relu: bool,
    },
    /// Feature-range slice (codes copied verbatim).
    Slice {
        offset: usize,
    },
    /// Embedding-bag gathers: feature `t` of the source indexes
    /// `tables[t]`, which hold the network dtype's codes (encoded once
    /// at compile time, like conv/fc weights, and shared by every
    /// rebind), so a gather is a copy.
    EmbeddingBag {
        tables: Arc<[Matrix]>,
    },
    /// DLRM pairwise-interaction epilogue; `dim` is the shared vector
    /// width and `part_features` each input's flattened per-image width.
    Interact {
        dim: usize,
        part_features: Vec<usize>,
    },
}

#[derive(Clone)]
struct Stage {
    name: String,
    op: StageOp,
    srcs: Vec<Src>,
    /// Flattened per-image width of the value this stage writes: its
    /// own, or for a conv that writes its channels into a concat's
    /// value ([`concat_places`]) the concat's.
    out_features: usize,
    /// Codes of each image of that value before this stage's first: a
    /// conv's channel offset in the concat it writes into, times its
    /// pixels; 0 for every other stage.
    offset: usize,
    /// For a conv that writes into a concat's value after the concat's
    /// first producer has: that producer's stage, whose slot it shares.
    joins: Option<usize>,
    /// Physical workspace slot this stage writes (assigned by
    /// [`assign_slots`]; slots are reused once every consumer has run).
    out_slot: usize,
}

impl GemmStage {
    /// The order the next stage reads this one's output in — NCHW for a
    /// conv, row-major for fc — with the layer's ReLU fused.
    fn layout(&self) -> EmitLayout {
        EmitLayout {
            conv_spatial: self.lowering.map(|v| v.out_h * v.out_w),
            relu: self.relu,
        }
    }
}

impl Stage {
    fn gemm(&self) -> Option<&GemmStage> {
        match &self.op {
            StageOp::Gemm(g) => Some(g),
            _ => None,
        }
    }
}

/// Liveness-based slot assignment: stages are built with *logical*
/// `Src::Stage(stage index)` references; this pass maps each stage's
/// output to a physical workspace slot that is recycled as soon as the
/// last consumer has executed, and rewrites the references. A plain
/// chain degenerates to two ping-pong buffers (the pre-graph memory
/// footprint) instead of one resident activation per stage; branchy
/// graphs keep exactly the values that are still live. A stage's
/// output slot is always allocated *before* its sources are freed, so
/// a stage never reads and writes the same slot. A concat written in
/// place is its first producer's value (its readers name that stage),
/// so that stage's slot lives until the concat's last reader; a later
/// producer ([`Stage::joins`]) writes its channels into the same slot,
/// which none of its own sources can hold — they are live while the
/// slot is. Returns the number of physical slots needed.
fn assign_slots(stages: &mut [Stage]) -> usize {
    // Last stage that reads each stage's output (0 = never read:
    // consumers are strictly later than their producers).
    let mut last_use = vec![0usize; stages.len()];
    for (si, stage) in stages.iter().enumerate() {
        for src in &stage.srcs {
            if let Src::Stage(j) = src {
                last_use[*j] = si;
            }
        }
    }
    let mut phys_of = vec![usize::MAX; stages.len()];
    let mut free: Vec<usize> = Vec::new();
    let mut count = 0usize;
    for si in 0..stages.len() {
        for src in &mut stages[si].srcs {
            if let Src::Stage(j) = src {
                *src = Src::Stage(phys_of[*j]);
            }
        }
        let slot = match stages[si].joins {
            Some(owner) => phys_of[owner],
            None => {
                let slot = free.pop().unwrap_or_else(|| {
                    count += 1;
                    count - 1
                });
                phys_of[si] = slot;
                slot
            }
        };
        assert_ne!(slot, usize::MAX, "a concat's slot outlives its producers");
        stages[si].out_slot = slot;
        // Free every value whose last consumer was this stage.
        for j in 0..si {
            if last_use[j] == si && phys_of[j] != usize::MAX {
                free.push(phys_of[j]);
                phys_of[j] = usize::MAX;
            }
        }
    }
    count
}

/// The convs that write their channels straight into a concat's value,
/// per node: `(concat node, codes of each image before the conv's
/// first)`. A concat qualifies — and then runs as no stage, like a
/// flatten — when every input is a conv that nothing else reads and a
/// stage follows it (the last stage's value is the reply, which a
/// concat stage writes). A Fire module's expands are such convs; a
/// concat of anything else keeps its copy.
fn concat_places(net: &Network) -> Vec<Option<(usize, usize)>> {
    let mut readers = vec![0usize; net.nodes.len()];
    for r in net.nodes.iter().flat_map(|node| &node.inputs) {
        if let NodeRef::Node(j) = *r {
            readers[j] += 1;
        }
    }
    let mut places = vec![None; net.nodes.len()];
    for (ci, node) in net.nodes.iter().enumerate() {
        let only_reader_of_a_conv = |r: &NodeRef| match *r {
            NodeRef::Node(j) => readers[j] == 1 && matches!(net.nodes[j].op, NodeOp::Conv { .. }),
            NodeRef::Input => false,
        };
        let followed = net.nodes[ci + 1..]
            .iter()
            .any(|n| !matches!(n.op, NodeOp::Flatten));
        if !matches!(node.op, NodeOp::Concat)
            || !followed
            || !node.inputs.iter().all(only_reader_of_a_conv)
        {
            continue;
        }
        let mut offset = 0;
        for &r in &node.inputs {
            if let NodeRef::Node(j) = r {
                places[j] = Some((ci, offset));
            }
            let (c, h, w) = net.dims_of(r);
            offset += c * h * w;
        }
    }
    places
}

/// Shapes `slot` for a `rows × cols` value of `dtype` and returns that
/// value's codes: the first `rows · cols` of the slot's buffer (what
/// `Workspace::slot` reads), which grows only past the longest value it
/// has held, so a pass refills no code (every stage writes each of its
/// codes).
fn fit(slot: &mut Matrix, rows: usize, cols: usize, dtype: Dtype) -> &mut [F16] {
    let len = rows * cols;
    if slot.data.len() < len {
        slot.data.resize(len, F16::ZERO);
    }
    (slot.rows, slot.cols, slot.dtype) = (rows, cols, dtype);
    &mut slot.data[..len]
}

/// A protected inference pipeline over GEMM and epilogue stages. A
/// clone shares the packed weights and embedding tables.
#[derive(Clone)]
pub struct ProtectedPipeline {
    /// The row cap: the compiled network's batch, kept by a rebind.
    batch: usize,
    input_features: usize,
    output_features: usize,
    /// In execution order: a topological order of the compiled graph.
    stages: Vec<Stage>,
    /// The scheme of each GEMM layer, in execution order — the list the
    /// stages were bound under, shared with every report.
    schemes: Arc<[Scheme]>,
    slot_count: usize,
    /// Storage dtype of activations and weights: slot write-backs
    /// encode into this format's codes and epilogue stages decode
    /// through it. Set from the compiled [`Network::dtype`].
    dtype: Dtype,
    /// When set, a detected fault triggers localization + targeted
    /// recompute *at the flagging stage* (the pass never re-runs), and
    /// resolved faults surface as [`LayerCorrection`]s. Off by default:
    /// detect-only is the paper's behavior.
    recovery: bool,
}

impl ProtectedPipeline {
    /// Compiles an executable [`Network`] — real FP16 weights, conv and
    /// epilogue nodes — against a per-GEMM-layer scheme assignment
    /// (`schemes[i]` protects the `i`-th conv/fc node in execution
    /// order, matching [`Network::to_model`]'s layer order).
    pub fn compile(net: &Network, schemes: &[Scheme]) -> Self {
        assert_eq!(
            schemes.len(),
            net.gemm_count(),
            "one scheme per conv/fc layer required"
        );
        let batch = net.batch;
        let dtype = net.dtype;
        // Weight values sit on the dtype's grid already (Network::
        // with_dtype snapped them), so re-encoding into raw dtype codes
        // is lossless; fp16 codes are kept as they are.
        let encode_weights = |mut m: Matrix| -> Matrix {
            if dtype != Dtype::F16 {
                let values: Vec<f32> = m.data.iter().map(|v| v.to_f32()).collect();
                dtype.encode_slice(&values, &mut m.data);
            }
            m.with_dtype(dtype)
        };
        let places = concat_places(net);
        // Per concat written in place: the stage of its first producer.
        let mut owners: Vec<Option<usize>> = vec![None; net.nodes.len()];
        let mut node_src: Vec<Src> = Vec::with_capacity(net.nodes.len());
        let mut stages: Vec<Stage> = Vec::new();
        let mut next_layer = 0usize;
        let mut gemm_stage = |wmat: &Matrix, lowering: Option<Im2colView>, relu: bool| {
            let layer = next_layer;
            next_layer += 1;
            StageOp::Gemm(GemmStage {
                bound: schemes[layer].bind(wmat),
                lowering,
                relu,
                layer,
            })
        };
        for (ni, node) in net.nodes.iter().enumerate() {
            let srcs: Vec<Src> = node
                .inputs
                .iter()
                .map(|&r| match r {
                    NodeRef::Input => Src::Input,
                    NodeRef::Node(j) => node_src[j],
                })
                .collect();
            let out_features = node.out_dims.0 * node.out_dims.1 * node.out_dims.2;
            if let Some(owner) = owners[ni] {
                // A concat its producers wrote into the first one's slot.
                node_src.push(Src::Stage(owner));
                continue;
            }
            let op = match &node.op {
                // Flatten is zero-copy: the NCHW slot layout is already
                // flat per image, so the node aliases its input.
                NodeOp::Flatten => {
                    node_src.push(srcs[0]);
                    continue;
                }
                NodeOp::Conv {
                    params,
                    weights,
                    relu,
                } => {
                    let (c, h, w) = net.dims_of(node.inputs[0]);
                    let view = params.im2col_view(c, h, w);
                    let wmat = encode_weights(filters_to_matrix(weights));
                    gemm_stage(&wmat, Some(view), *relu)
                }
                // An fp16 network's matrix is already the codes to pack.
                NodeOp::Fc { weights, relu } if dtype == Dtype::F16 => {
                    gemm_stage(weights, None, *relu)
                }
                NodeOp::Fc { weights, relu } => {
                    gemm_stage(&encode_weights(weights.clone()), None, *relu)
                }
                NodeOp::Pool(p) => StageOp::Pool {
                    params: *p,
                    in_dims: net.dims_of(node.inputs[0]),
                },
                NodeOp::GlobalAvgPool => StageOp::GlobalAvgPool {
                    in_dims: net.dims_of(node.inputs[0]),
                },
                NodeOp::Concat => StageOp::Concat {
                    part_features: node
                        .inputs
                        .iter()
                        .map(|&r| {
                            let d = net.dims_of(r);
                            d.0 * d.1 * d.2
                        })
                        .collect(),
                },
                NodeOp::Add { relu } => StageOp::Add { relu: *relu },
                NodeOp::Slice { offset } => StageOp::Slice { offset: *offset },
                NodeOp::EmbeddingBag { tables } => StageOp::EmbeddingBag {
                    tables: tables.iter().cloned().map(encode_weights).collect(),
                },
                NodeOp::Interact => {
                    let part_features: Vec<usize> = node
                        .inputs
                        .iter()
                        .map(|&r| {
                            let d = net.dims_of(r);
                            d.0 * d.1 * d.2
                        })
                        .collect();
                    StageOp::Interact {
                        dim: part_features[0],
                        part_features,
                    }
                }
            };
            let (out_features, offset, joins) = match places[ni] {
                Some((concat, offset)) => {
                    let joins = owners[concat];
                    owners[concat].get_or_insert(stages.len());
                    let (c, h, w) = net.nodes[concat].out_dims;
                    (c * h * w, offset, joins)
                }
                None => (out_features, 0, None),
            };
            stages.push(Stage {
                name: node.name.clone(),
                op,
                srcs,
                out_features,
                offset,
                joins,
                out_slot: 0,
            });
            node_src.push(Src::Stage(stages.len() - 1));
        }
        let slot_count = assign_slots(&mut stages);
        ProtectedPipeline {
            batch,
            input_features: net.input_features(),
            output_features: net.output_features(),
            stages,
            schemes: schemes.into(),
            slot_count,
            dtype,
            recovery: false,
        }
    }

    /// The same stage graph with `schemes[i]` bound over the `i`-th
    /// conv/fc layer's packed weights ([`BoundGemm::rebind`]): every
    /// panel and embedding table is shared with `self`, so nothing is
    /// packed or copied, and the row cap and recovery mode carry over.
    pub fn rebind(&self, schemes: &[Scheme]) -> Self {
        assert_eq!(
            schemes.len(),
            self.depth(),
            "one scheme per conv/fc layer required"
        );
        let mut rebound = self.clone();
        for stage in &mut rebound.stages {
            if let StageOp::Gemm(g) = &mut stage.op {
                g.bound = g.bound.rebind(schemes[g.layer]);
            }
        }
        rebound.schemes = schemes.into();
        rebound
    }

    /// Enables (or disables) recovery mode: a detected fault is
    /// localized and repaired at the flagging stage by targeted
    /// recompute — one stage's implicated cells, never the whole pass —
    /// and surfaces as a [`LayerCorrection`] instead of a detection.
    pub fn with_recovery(mut self, on: bool) -> Self {
        self.recovery = on;
        self
    }

    /// Whether recovery mode is enabled.
    pub fn recovery(&self) -> bool {
        self.recovery
    }

    /// Does nothing: a pass has no branch-level fan-out to cap (the
    /// engine's stripes are the one intra-request fan-out). Kept only
    /// because `benchmark/src/layers.rs` calls it and `benchmark/` is
    /// frozen outside `benchmark` PRs; the next one drops that call and
    /// this method with it. Nothing else may call it.
    #[doc(hidden)]
    pub fn with_branch_workers(self, _workers: usize) -> Self {
        self
    }

    /// The storage dtype this pipeline executes in.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Number of GEMM (conv/fc) layers.
    pub fn depth(&self) -> usize {
        self.schemes.len()
    }

    /// Input feature width (flattened `C·H·W`).
    pub fn input_features(&self) -> usize {
        self.input_features
    }

    /// Output feature width of the final stage.
    pub fn output_features(&self) -> usize {
        self.output_features
    }

    /// Per-GEMM-layer scheme assignment, in execution order, shared
    /// (cloning never reallocates).
    pub fn schemes(&self) -> &Arc<[Scheme]> {
        &self.schemes
    }

    /// Runs protected inference on `input` (rows ≤ batch, flattened
    /// input features), optionally injecting one fault. Convenience
    /// over [`Self::infer_into`] with a throwaway workspace.
    pub fn infer(&self, input: &Matrix, fault: Option<PipelineFault>) -> InferenceReport {
        self.infer_into(input, fault, &mut Workspace::new())
    }

    /// Runs protected inference entirely inside `ws` — the serving hot
    /// path, a loop over the stages in stage order. One workspace is
    /// reused across all stages of this request: GEMM scratch (its
    /// child workspace) and the per-stage FP16 value slots all live in
    /// `ws`, so callers that hold it across requests (the `Session`
    /// checkout pool) reach a steady state where the only per-request
    /// allocation is the returned report's output vector.
    ///
    /// Every stage runs at `input.rows` (at most the row cap): the
    /// first stage reads `input` in place and the report's output is
    /// the last stage's, `input.rows × output_features`. A fault aimed
    /// past the request's last row has no accumulator to strike.
    pub fn infer_into(
        &self,
        input: &Matrix,
        fault: Option<PipelineFault>,
        ws: &mut Workspace,
    ) -> InferenceReport {
        self.infer_timed_into(input, fault, ws).0
    }

    /// [`Self::infer_into`], also returning where the pass's time went
    /// ([`StageTimes`]; a `Session` adds them up into its statistics).
    pub fn infer_timed_into(
        &self,
        input: &Matrix,
        fault: Option<PipelineFault>,
        ws: &mut Workspace,
    ) -> (InferenceReport, StageTimes) {
        assert!(
            input.rows <= self.batch,
            "request batch {} exceeds pipeline batch {}",
            input.rows,
            self.batch
        );
        assert_eq!(
            input.cols, self.input_features,
            "input feature width mismatch"
        );
        assert_eq!(
            input.dtype, self.dtype,
            "request dtype must match the pipeline's storage dtype"
        );
        assert_eq!(
            input.data.len(),
            input.rows * input.cols,
            "request buffer must hold rows × cols codes"
        );
        let mut report = InferenceReport {
            output: Vec::new(),
            detections: Vec::new(),
            corrections: Vec::new(),
        };
        let mut times = StageTimes::default();
        if input.rows == 0 {
            // No rows, no work: nothing ran that a check could compare.
            return (report, times);
        }
        ws.ensure_slots(self.slot_count);
        for (si, stage) in self.stages.iter().enumerate() {
            let started = Instant::now();
            match stage.gemm() {
                Some(g) => self.run_gemm_stage(si, g, ws, input, fault, &mut report),
                None => self.run_epilogue_stage(si, ws, input, &mut report.output),
            }
            *times.of(&stage.op) += started.elapsed().as_nanos() as u64;
        }
        (report, times)
    }

    /// Runs GEMM stage `si` out of its source's slot into its own, and
    /// records what its scheme found.
    fn run_gemm_stage(
        &self,
        si: usize,
        g: &GemmStage,
        ws: &mut Workspace,
        input: &Matrix,
        fault: Option<PipelineFault>,
        report: &mut InferenceReport,
    ) {
        let stage = &self.stages[si];
        // The destination slot leaves the table for the stage, so the
        // table holds exactly what the stage may read — its source,
        // viewed in place (assign_slots never hands a stage its own
        // source's slot) — while the engine works in the child
        // workspace.
        let mut dst = ws.take_slot(stage.out_slot);
        let (held, child) = ws.slot_and_child(match stage.srcs[0] {
            Src::Input => None,
            Src::Stage(j) => Some(j),
        });
        let src = held.unwrap_or_else(|| input.view());
        // The final stage's output is read raw off the workspace.
        let is_last = si + 1 == self.stages.len();
        let codes = (!is_last).then(|| {
            let value = fit(&mut dst, src.rows, stage.out_features, self.dtype);
            &mut value[stage.offset..]
        });
        let verdict = self.run_gemm(stage, src, fault, child, codes);
        record_gemm_outcome(g, &stage.name, child.output(), verdict, report);
        if is_last {
            // The final output stays raw f32 (ReLU only if the layer
            // fuses one).
            let out = &mut report.output;
            out.resize(input.rows * stage.out_features, 0.0);
            emit_output(child.output(), g.layout(), |at, run| {
                out[at..at + run.len()].copy_from_slice(run)
            });
        }
        ws.put_slot(stage.out_slot, dst);
    }

    /// Runs one protected GEMM stage inside the (child) workspace `ws` —
    /// the one place the pipeline runs a [`BoundGemm`]. The source
    /// value (`src.rows` images) is viewed as the stage's activation
    /// matrix without a copy: row-major for fc; for convs the
    /// implicit-GEMM lowering of the NCHW slot (the engine's A-panel
    /// staging gathers straight from it,
    /// so the lowered matrix never exists; padding taps are the zero
    /// code in every dtype). `codes`, when given, receives the encoded
    /// output with the ReLU epilogue fused into the down-conversion — a
    /// conv's at the stage's image stride, so an expand lands in its
    /// concat's channels — and the run then keeps no f32 copy of it: a
    /// conv's codes come from the engine's tasks, block by block as they
    /// finish each one (`Dest::Codes`), and an fc's from one loop after
    /// the walk. The f32 output is asked for only where it is read: by
    /// the final stage, by a multi-checksum check (`BoundGemm::run_into`
    /// fills the codes after it), and in recovery mode, where a detected
    /// fault is repaired in the f32 cells and every stage's codes are
    /// encoded after the walk (and the repair), through the same body.
    fn run_gemm(
        &self,
        stage: &Stage,
        src: MatrixView<'_>,
        fault: Option<PipelineFault>,
        ws: &mut Workspace,
        codes: Option<&mut [F16]>,
    ) -> Verdict {
        let g = stage.gemm().expect("GEMM stage");
        let a = match g.lowering {
            None => src,
            Some(view) => MatrixView::im2col_lowered(src.rows, view, src.data, self.dtype),
        };
        let layer_fault = fault.and_then(|f| (f.layer == g.layer).then_some(f.fault));
        let faults = layer_fault.as_slice();
        let (dtype, layout) = (self.dtype, g.layout());
        let conv = |codes, spatial| Dest::Codes {
            codes,
            dtype,
            spatial,
            relu: layout.relu,
            stride: stage.out_features,
        };
        // Who writes the slot. A conv's write-back is a transpose, bound
        // by strided stores, and sharing it among the engine's tasks is
        // worth 1.07–1.13× of a SqueezeNet pass. An fc's is a straight
        // encode at memory speed, which two cores do no faster than one:
        // in the tasks it made `fc1024_b256` 3–4 % *slower* (twelve
        // interleaved rounds, ahead in 2 and 4) — the slot's lines end up
        // spread over both caches for the checksum and the staging that
        // read it next — so it stays a loop on the caller, after the
        // walk. In recovery mode a conv's codes come after the walk too:
        // a repair rewrites the f32 cells.
        let (dest, after) = match (codes, layout.conv_spatial) {
            (Some(codes), Some(spatial)) if !self.recovery => (conv(codes, spatial), None),
            (codes, _) => (Dest::None, codes),
        };
        let mut verdict = g.bound.run_into(a, faults, dest, ws);
        if self.recovery && verdict.is_detected() {
            verdict = g.bound.correct_into(a, ws, verdict);
        }
        match (after, layout.conv_spatial) {
            (Some(codes), Some(spatial)) => conv(codes, spatial).encode(ws.output()),
            (Some(codes), None) => encode_output(ws.output(), layout, dtype, codes),
            (None, _) => {}
        }
        verdict
    }

    /// Executes one epilogue stage — pure FP16 slot-to-slot computation.
    /// Pooling stages spread their planes over the fork-join team
    /// ([`pool_members`]); the rest (concat, slice, gather, add, the
    /// interaction) are copies and a few thousand flops and stay on the
    /// calling thread.
    fn run_epilogue_stage(
        &self,
        si: usize,
        ws: &mut Workspace,
        input: &Matrix,
        final_output: &mut Vec<f32>,
    ) {
        let stage = &self.stages[si];
        let is_last = si + 1 == self.stages.len();
        let dt = self.dtype;
        let rows = input.rows;
        let mut dst = ws.take_slot(stage.out_slot);
        let mut glue = ws.take_glue();
        // Every stage below writes each of these codes.
        let out = fit(&mut dst, rows, stage.out_features, dt);
        {
            let get = |r: Src| -> MatrixView<'_> {
                match r {
                    Src::Input => input.view(),
                    Src::Stage(j) => ws.slot(j),
                }
            };
            match &stage.op {
                StageOp::Pool { params, in_dims } => {
                    let (src, (_, h, w)) = (get(stage.srcs[0]), *in_dims);
                    let per_plane = params.out_extent(h) * params.out_extent(w);
                    let scratch = sized(
                        &mut glue,
                        pool_members(src.data.len()),
                        pool_scratch_len(params, (h, w)),
                    );
                    let chunk = POOL_PLANES_PER_TASK * per_plane;
                    let path = simd::active_path();
                    team::run_chunks(scratch, out, chunk, &|scratch, task, out| {
                        let first = task * POOL_PLANES_PER_TASK * h * w;
                        let codes = &src.data[first..][..out.len() / per_plane * h * w];
                        pool_planes(codes, dt, (h, w), params, out, scratch, path);
                    });
                }
                StageOp::GlobalAvgPool { in_dims } => {
                    let (src, hw) = (get(stage.srcs[0]), in_dims.1 * in_dims.2);
                    let scratch = sized(
                        &mut glue,
                        pool_members(src.data.len()),
                        hw + POOL_PLANES_PER_TASK,
                    );
                    let chunk = POOL_PLANES_PER_TASK;
                    team::run_chunks(scratch, out, chunk, &|scratch, task, out| {
                        let codes = &src.data[task * chunk * hw..][..out.len() * hw];
                        global_avg_planes(codes, dt, hw, out, scratch);
                    });
                }
                StageOp::Concat { part_features } => {
                    let mut at = 0;
                    for n in 0..rows {
                        for (&r, &f) in stage.srcs.iter().zip(part_features) {
                            out[at..at + f].copy_from_slice(&get(r).data[n * f..][..f]);
                            at += f;
                        }
                    }
                }
                StageOp::Add { relu } => {
                    let (a, b) = (get(stage.srcs[0]), get(stage.srcs[1]));
                    let n = a.data.len();
                    let (sum, rhs) = sized(&mut glue, 1, 2 * n)[0][..2 * n].split_at_mut(n);
                    dt.decode_slice(a.data, sum);
                    dt.decode_slice(b.data, rhs);
                    for (x, y) in sum.iter_mut().zip(rhs.iter()) {
                        *x = if *relu { emit::relu(*x + y) } else { *x + y };
                    }
                    dt.encode_slice(sum, out);
                }
                StageOp::Slice { offset } => {
                    let src = get(stage.srcs[0]);
                    let f = src.cols;
                    for (n, out) in out.chunks_exact_mut(stage.out_features).enumerate() {
                        out.copy_from_slice(&src.data[n * f + offset..][..stage.out_features]);
                    }
                }
                StageOp::EmbeddingBag { tables } => {
                    let src = get(stage.srcs[0]);
                    let t_count = tables.len();
                    let mut at = 0;
                    for n in 0..rows {
                        for (t, table) in tables.iter().enumerate() {
                            let idx = embedding_index(
                                dt.decode(src.data[n * t_count + t].to_bits()),
                                table.rows,
                            );
                            out[at..at + table.cols]
                                .copy_from_slice(&table.data[idx * table.cols..][..table.cols]);
                            at += table.cols;
                        }
                    }
                }
                StageOp::Interact { dim, part_features } => {
                    let dim = *dim;
                    let total: usize = part_features.iter().sum();
                    let pairs = stage.out_features - dim;
                    // One image's vectors — the concatenation of the
                    // inputs, decoded once — then its pair products.
                    let scratch = &mut sized(&mut glue, 1, total + pairs)[0];
                    let (vectors, dots) = scratch[..total + pairs].split_at_mut(total);
                    for (n, out) in out.chunks_exact_mut(stage.out_features).enumerate() {
                        let mut at = 0;
                        for (&r, &pf) in stage.srcs.iter().zip(part_features) {
                            let codes = &get(r).data[n * pf..(n + 1) * pf];
                            dt.decode_slice(codes, &mut vectors[at..at + pf]);
                            at += pf;
                        }
                        // The first vector's codes pass through verbatim
                        // (they are already on-grid).
                        let first = &get(stage.srcs[0]).data[n * part_features[0]..][..dim];
                        out[..dim].copy_from_slice(first);
                        interact_dots(vectors, dim, dots);
                        dt.encode_slice(dots, &mut out[dim..]);
                    }
                }
                StageOp::Gemm { .. } => unreachable!("handled above"),
            }
        }
        if is_last {
            final_output.resize(out.len(), 0.0);
            dt.decode_slice(out, final_output);
        }
        ws.put_glue(glue);
        ws.put_slot(stage.out_slot, dst);
    }
}

/// Records one GEMM stage's outcome into the report.
fn record_gemm_outcome(
    g: &GemmStage,
    name: &str,
    out: &GemmOutput,
    verdict: Verdict,
    report: &mut InferenceReport,
) {
    let scheme = g.bound.scheme();
    let mut detected = |residual: f64| {
        report.detections.push(LayerDetection {
            layer: g.layer,
            name: name.to_string(),
            scheme,
            residual,
        })
    };
    // Thread-level detections come out of the kernel itself, with
    // per-tile provenance.
    out.detections.iter().for_each(|d| detected(d.residual));
    // Kernel-level verdicts (global ABFT's deferred reduce-and-compare,
    // §2.5 step 5) have no thread provenance; record them once.
    if out.detections.is_empty() {
        if let Verdict::Detected { residual, .. } = verdict {
            detected(residual);
        }
    }
    // A repaired layer records the correction (its per-tile
    // detections, if any, were cleared by the repair, so none were
    // pushed above).
    if let Verdict::Corrected {
        residual,
        site,
        vote,
        ..
    } = verdict
    {
        report.corrections.push(LayerCorrection {
            layer: g.layer,
            name: name.to_string(),
            scheme,
            site,
            vote,
            residual,
        });
    }
}

/// Planes a pooling task covers. A task should outlast the fork-join's
/// own costs many times over yet leave each member several to take, so
/// a slowed member holds the region for one short task at most (the
/// reasoning behind the engine's `STRIPES_PER_MEMBER`): SqueezeNet-224's
/// pools are 64–256 planes of 0.7–9 µs each (`BENCH_engine.json`
/// `engine/pool3x3s2_64x111x111_one_us` / 64: 340–620 µs over seventeen
/// uncapped recordings), so eight planes are 8, 16 and 32 tasks of
/// 6–70 µs, still dozens of hot fork-joins each. The four pooling stages
/// of a pass read 1.47–1.51 ms at 4, 8 and 16 planes a task on two
/// members (twelve interleaved rounds of medians), 1.56–1.68 at 1–2,
/// 2.76 on one — measured while each tap was a call over a row of
/// outputs, and not re-tuned since the taps fold in registers.
const POOL_PLANES_PER_TASK: usize = 8;

/// Input elements under which a pooling stage stays on its caller. A
/// max pool costs 0.45–0.8 ns an input element on one member
/// (`engine/pool3x3s2_64x111x111_one_us` over 788,544 elements; 1.1–1.4
/// while each tap was a call over a row of outputs), and a parked
/// member's wake-up 55–95 µs (`team/fork_join_parked_us`) — so below
/// 64 Ki elements (30–52 µs) the caller alone is done inside one
/// wake-up.
/// Every pool of SqueezeNet-224 (169 k elements and up) clears it; the
/// 32×32 test nets' do not.
const POOL_PAR_MIN_ELEMS: usize = 64 * 1024;

/// How many team members a pooling stage over `elems` input elements
/// offers its planes to; what it gets is the team's inline rule.
fn pool_members(elems: usize) -> usize {
    if elems < POOL_PAR_MIN_ELEMS {
        1
    } else {
        team::width()
    }
}

/// The first `members` entries of the workspace's between-GEMM scratch,
/// each at least `len` long — grown here, on the calling thread, so no
/// member of a fanned-out stage allocates. Nothing is cleared: a stage
/// reads what it wrote.
fn sized(glue: &mut Vec<Vec<f32>>, members: usize, len: usize) -> &mut [Vec<f32>] {
    if glue.len() < members {
        glue.resize_with(members, Vec::new);
    }
    for scratch in &mut glue[..members] {
        if scratch.len() < len {
            scratch.resize(len, 0.0);
        }
    }
    &mut glue[..members]
}

/// The pairwise dot products `⟨vᵢ, vⱼ⟩`, `i < j`, `i`-major, of the
/// `dim`-wide vectors in `vectors`: each one in-order `dot += x · y`
/// chain from zero (multiply, then add — the per-element loop's
/// rounding, not an FMA's).
fn interact_dots(vectors: &[f32], dim: usize, dots: &mut [f32]) {
    let m = vectors.len() / dim;
    let mut dots = dots.iter_mut();
    for vi in 0..m {
        for vj in vi + 1..m {
            let (x, y) = (&vectors[vi * dim..][..dim], &vectors[vj * dim..][..dim]);
            let mut dot = 0.0f32;
            for (x, y) in x.iter().zip(y) {
                dot += x * y;
            }
            *dots.next().expect("one slot per pair") = dot;
        }
    }
}

/// f32 of scratch [`pool_planes`] needs for planes of `h × w`: one
/// decoded plane and its outputs.
fn pool_scratch_len(p: &PoolParams, (h, w): (usize, usize)) -> usize {
    h * w + p.out_extent(h) * p.out_extent(w)
}

/// Pools the `h × w` planes in `codes` into `dst`, plane by plane (max
/// skips out-of-bounds cells; avg divides by the in-bounds cell count —
/// mirrored exactly by `Network::reference_f64`): one task's share of a
/// pooling stage, or all of it. Each plane is decoded once as a slice
/// and its outputs encoded as one. A max pool's windows that lie
/// wholly inside a row are pooled in registers ([`pool::max_row`], on
/// `path`); the windows that cross an edge, and every average, are
/// folded a window at a time. Both fold in `(ky, kx)` order — the max
/// by [`pool::max_fold`] from `−∞`, the average by `+` from zero — so
/// every output sees the sequence of a per-output tap loop, −0.0 and
/// NaN included.
fn pool_planes(
    codes: &[F16],
    dt: Dtype,
    (h, w): (usize, usize),
    p: &PoolParams,
    dst: &mut [F16],
    scratch: &mut [f32],
    path: simd::GemmPath,
) {
    let (ho, wo) = (p.out_extent(h), p.out_extent(w));
    let (plane, outs) = scratch[..pool_scratch_len(p, (h, w))].split_at_mut(h * w);
    // The in-bounds taps `lo..hi` of output `o` along an axis of extent
    // `len`, and the input coordinate of its tap 0.
    let taps = |o: usize, len: usize| {
        let first = (o * p.stride) as isize - p.padding as isize;
        let lo = (-first).clamp(0, p.kernel as isize);
        let hi = (len as isize - first).clamp(lo, p.kernel as isize);
        (first, lo as usize, hi as usize)
    };
    // The outputs whose windows lie wholly inside a row: in registers.
    let inside = match p.kind {
        PoolKind::Max => {
            let first = p.padding.div_ceil(p.stride).min(wo);
            let end = (w + p.padding)
                .checked_sub(p.kernel)
                .map_or(0, |x| x / p.stride + 1);
            first..end.clamp(first, wo)
        }
        PoolKind::Avg => 0..0,
    };
    let planes = codes.chunks_exact(h * w);
    for (codes, dst) in planes.zip(dst.chunks_exact_mut(ho * wo)) {
        dt.decode_slice(codes, plane);
        for (oy, out) in outs.chunks_exact_mut(wo).enumerate() {
            let (iy0, ky0, ky1) = taps(oy, h);
            let rows = (iy0 + ky0 as isize) as usize..(iy0 + ky1 as isize) as usize;
            let window = |ox: usize| {
                let (ix0, kx0, kx1) = taps(ox, w);
                let (mut best, mut sum) = (f32::NEG_INFINITY, 0.0f32);
                for iy in rows.clone() {
                    let row = &plane[iy * w..];
                    for &v in &row[(ix0 + kx0 as isize) as usize..(ix0 + kx1 as isize) as usize] {
                        best = pool::max_fold(best, v);
                        sum += v;
                    }
                }
                // Small integers: the product is the exact cell count.
                let cells = (ky1 - ky0) as f32 * (kx1 - kx0) as f32;
                match p.kind {
                    _ if cells == 0.0 => 0.0,
                    PoolKind::Max => best,
                    PoolKind::Avg => sum / cells,
                }
            };
            for ox in (0..inside.start).chain(inside.end..wo) {
                out[ox] = window(ox);
            }
            if rows.is_empty() {
                // No cell: as `window` has it.
                out[inside.clone()].fill(0.0);
            } else if !inside.is_empty() {
                let x0 = inside.start * p.stride - p.padding;
                let row = &mut out[inside.clone()];
                pool::max_row(path, plane, w, rows, (p.kernel, p.stride), x0, row);
            }
        }
        dt.encode_slice(outs, dst);
    }
}

/// Global average pooling to `1 × 1` per channel, for the `hw`-element
/// planes in `codes` (at most [`POOL_PLANES_PER_TASK`] of them, one code
/// of `dst` each): each plane decoded as a slice and summed in storage
/// order, the means encoded as one slice.
fn global_avg_planes(codes: &[F16], dt: Dtype, hw: usize, dst: &mut [F16], scratch: &mut [f32]) {
    let (plane, means) = scratch[..hw + dst.len()].split_at_mut(hw);
    for (codes, mean) in codes.chunks_exact(hw).zip(means.iter_mut()) {
        dt.decode_slice(codes, plane);
        *mean = plane.iter().sum::<f32>() / hw as f32;
    }
    dt.encode_slice(means, dst);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aiga_gpu::engine::FaultKind;
    use aiga_nn::zoo;

    /// FNV-1a over the output bits — the `engine_golden.rs` hash.
    pub(crate) fn fnv1a(c: &[f32]) -> u64 {
        c.iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf29ce484222325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100000001b3)
            })
    }

    fn input(batch: usize, features: usize) -> Matrix {
        Matrix::random(batch, features, 4242)
    }

    /// Each GEMM layer's packed weights, in layer order.
    pub(crate) fn panels(p: &ProtectedPipeline) -> Vec<Arc<aiga_gpu::engine::PackedWeights>> {
        let layers = p.stages.iter().filter_map(Stage::gemm);
        layers
            .map(|g| Arc::clone(crate::kernel::tests::weights(&g.bound)))
            .collect()
    }

    /// An MLP chain lowered to a network, one scheme on every layer.
    fn uniform(model: &aiga_nn::Model, scheme: Scheme, seed: u64) -> ProtectedPipeline {
        let net = Network::from_mlp(model, seed);
        ProtectedPipeline::compile(&net, &vec![scheme; net.gemm_count()])
    }

    #[test]
    fn clean_dlrm_bottom_inference_raises_nothing() {
        let model = zoo::dlrm_mlp_bottom(16);
        for scheme in [Scheme::GlobalAbft, Scheme::ThreadLevelOneSided] {
            let p = uniform(&model, scheme, 1);
            let r = p.infer(&input(16, 13), None);
            assert!(!r.fault_detected(), "{scheme}: {:?}", r.detections.first());
            assert_eq!(r.output.len(), 16 * 64);
        }
    }

    #[test]
    fn fault_in_a_middle_layer_is_caught_at_that_layer() {
        let model = zoo::dlrm_mlp_bottom(16);
        let p = uniform(&model, Scheme::ThreadLevelOneSided, 2);
        let fault = PipelineFault {
            layer: 1,
            fault: FaultPlan {
                row: 3,
                col: 100,
                after_step: 2,
                kind: FaultKind::AddValue(40.0),
            },
        };
        let r = p.infer(&input(16, 13), Some(fault));
        assert!(r.fault_detected());
        assert_eq!(r.detections[0].layer, 1);
        assert_eq!(r.detections[0].scheme, Scheme::ThreadLevelOneSided);
    }

    #[test]
    fn mixed_assignment_follows_the_plan() {
        let model = zoo::dlrm_mlp_bottom(16);
        let schemes = [
            Scheme::GlobalAbft,
            Scheme::ThreadLevelOneSided,
            Scheme::GlobalAbft,
        ];
        let p = ProtectedPipeline::compile(&Network::from_mlp(&model, 3), &schemes);
        assert_eq!(p.schemes()[..], schemes);
        // Fault in layer 0 must be detected by global ABFT.
        let fault = PipelineFault {
            layer: 0,
            fault: FaultPlan {
                row: 1,
                col: 1,
                after_step: u64::MAX,
                kind: FaultKind::AddValue(30.0),
            },
        };
        let r = p.infer(&input(16, 13), Some(fault));
        assert!(r.fault_detected());
        assert_eq!(r.detections[0].scheme, Scheme::GlobalAbft);
    }

    #[test]
    fn a_rebind_runs_like_a_fresh_compile_over_the_same_panels() {
        let net = zoo::resnet_block_net(2, 8, 8, 7);
        let schemes = [
            Scheme::GlobalAbft,
            Scheme::ThreadLevelTwoSided,
            Scheme::MultiChecksum(2),
            Scheme::ThreadLevelOneSided,
            Scheme::ReplicationTraditional,
        ];
        let bare = ProtectedPipeline::compile(&net, &[Scheme::Unprotected; 5]);
        let (rebound, fresh) = (
            bare.rebind(&schemes),
            ProtectedPipeline::compile(&net, &schemes),
        );
        assert_eq!(rebound.schemes()[..], schemes);
        let shared = panels(&rebound).into_iter().zip(panels(&bare));
        assert!(shared.into_iter().all(|(a, b)| Arc::ptr_eq(&a, &b)));
        let input = input(2, net.input_features());
        for layer in 0..5 {
            let fault = PipelineFault {
                layer,
                fault: FaultPlan {
                    row: 1,
                    col: 1,
                    after_step: u64::MAX,
                    kind: FaultKind::AddValue(40.0),
                },
            };
            let (a, b) = (
                rebound.infer(&input, Some(fault)),
                fresh.infer(&input, Some(fault)),
            );
            assert_eq!(fnv1a(&a.output), fnv1a(&b.output), "layer {layer}");
            let residuals = |r: &InferenceReport| -> Vec<(usize, u64)> {
                r.detections
                    .iter()
                    .map(|d| (d.layer, d.residual.to_bits()))
                    .collect()
            };
            assert!(a.fault_detected(), "layer {layer}");
            assert_eq!(residuals(&a), residuals(&b), "layer {layer}");
        }
    }

    #[test]
    fn unprotected_pipeline_silently_corrupts() {
        let model = zoo::dlrm_mlp_bottom(8);
        let p = uniform(&model, Scheme::Unprotected, 4);
        let clean = p.infer(&input(8, 13), None);
        let fault = PipelineFault {
            layer: 0,
            fault: FaultPlan {
                row: 0,
                col: 0,
                after_step: 0,
                kind: FaultKind::SetValue(100.0),
            },
        };
        let dirty = p.infer(&input(8, 13), Some(fault));
        assert!(!dirty.fault_detected());
        // The corruption propagates through ReLU into downstream layers.
        assert_ne!(clean.output, dirty.output);
    }

    #[test]
    fn multi_checksum_extension_serves_through_the_pipeline() {
        let model = zoo::dlrm_mlp_bottom(8);
        let p = uniform(&model, Scheme::MultiChecksum(2), 6);
        let clean = p.infer(&input(8, 13), None);
        assert!(!clean.fault_detected());
        let fault = PipelineFault {
            layer: 1,
            fault: FaultPlan {
                row: 2,
                col: 7,
                after_step: u64::MAX,
                kind: FaultKind::AddValue(60.0),
            },
        };
        let dirty = p.infer(&input(8, 13), Some(fault));
        assert!(dirty.fault_detected());
        assert_eq!(dirty.detections[0].scheme, Scheme::MultiChecksum(2));
    }

    mod compiled {
        use super::*;
        use aiga_nn::graph::NetworkBuilder;

        fn conv_net(batch: usize) -> aiga_nn::Network {
            let mut b = NetworkBuilder::new("conv-net", batch, 2, 8, 8, 11);
            b.conv("c1", 4, 3, 1, 1, true);
            b.max_pool("p1", 2, 2, 0);
            b.conv("c2", 6, 3, 2, 1, true);
            b.global_avg_pool("gap");
            b.fc("fc", 5, false);
            b.build()
        }

        #[test]
        fn compiled_conv_net_matches_its_f64_reference() {
            let net = conv_net(3);
            let p = ProtectedPipeline::compile(&net, &[Scheme::GlobalAbft; 3]);
            assert_eq!(p.depth(), 3);
            assert_eq!(p.input_features(), 2 * 8 * 8);
            assert_eq!(p.output_features(), 5);
            let input = Matrix::random(3, 2 * 8 * 8, 21);
            let r = p.infer(&input, None);
            assert!(!r.fault_detected());
            let want = net.reference_f64(&input);
            assert_eq!(r.output.len(), want.len());
            for (i, (&got, &w)) in r.output.iter().zip(&want).enumerate() {
                assert!((got as f64 - w).abs() < 2e-2, "elem {i}: {got} vs {w}");
            }
        }

        #[test]
        fn compiled_faults_are_detected_at_the_conv_layer() {
            let net = conv_net(2);
            let p = ProtectedPipeline::compile(&net, &[Scheme::ThreadLevelOneSided; 3]);
            let fault = PipelineFault {
                layer: 1, // the strided conv
                fault: FaultPlan {
                    row: 2,
                    col: 3,
                    after_step: u64::MAX,
                    kind: FaultKind::AddValue(200.0),
                },
            };
            let r = p.infer(&Matrix::random(2, 2 * 8 * 8, 22), Some(fault));
            assert!(r.fault_detected());
            assert_eq!(r.detections[0].layer, 1);
            assert_eq!(r.detections[0].name, "c2");
        }

        #[test]
        fn slot_assignment_recycles_dead_values() {
            // A chain ping-pongs two physical slots no matter its depth
            // (the pre-graph memory footprint).
            let chain = uniform(&zoo::dlrm_mlp_bottom(8), Scheme::GlobalAbft, 1);
            assert_eq!(chain.slot_count, 2);
            // Branchy graphs keep only the values that are still live:
            // SqueezeNet's stages need two slots (a Fire module holds
            // its squeeze output and the concat both expands write in
            // place; the count may only fall).
            let net = zoo::squeezenet_net(1, 32, 32, 3);
            let p = ProtectedPipeline::compile(&net, &vec![Scheme::GlobalAbft; net.gemm_count()]);
            assert_eq!(p.slot_count, 2, "fire modules should recycle dead slots");
            assert!(p
                .stages
                .iter()
                .all(|s| !matches!(s.op, StageOp::Concat { .. })));
            // A stage never reads the physical slot it writes.
            for s in &p.stages {
                for src in &s.srcs {
                    if let Src::Stage(j) = src {
                        assert_ne!(*j, s.out_slot, "{}", s.name);
                    }
                }
            }
        }

        #[test]
        fn every_dtype_serves_the_conv_net_within_reference_tolerance() {
            // The same graph compiled at each storage dtype must track
            // its dtype-aware f64 reference: the executor and reference
            // share every quantization point, differing only in f32 vs
            // f64 GEMM accumulation.
            for dtype in Dtype::ALL {
                let net = conv_net(3).with_dtype(dtype);
                let p = ProtectedPipeline::compile(&net, &[Scheme::GlobalAbft; 3]);
                assert_eq!(p.dtype(), dtype);
                let input = Matrix::random_dtype(3, 2 * 8 * 8, 21, dtype);
                let r = p.infer(&input, None);
                assert!(!r.fault_detected(), "{dtype}: {:?}", r.detections.first());
                let want = net.reference_f64(&input);
                assert_eq!(r.output.len(), want.len());
                // fp8 carries ~2^-4 relative steps through three layers;
                // activations are O(1), so an absolute envelope works
                // for every format.
                let tol = match dtype {
                    Dtype::F16 | Dtype::Bf16 => 2e-2,
                    Dtype::Fp8E4M3 | Dtype::Int8 => 2e-1,
                };
                for (i, (&got, &w)) in r.output.iter().zip(&want).enumerate() {
                    assert!(
                        (got as f64 - w).abs() < tol,
                        "{dtype} elem {i}: {got} vs {w}"
                    );
                }
            }
        }

        #[test]
        fn bf16_inference_is_byte_deterministic() {
            let net = conv_net(2).with_dtype(Dtype::Bf16);
            let p = ProtectedPipeline::compile(&net, &[Scheme::ThreadLevelOneSided; 3]);
            let input = Matrix::random_dtype(2, 2 * 8 * 8, 31, Dtype::Bf16);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let first = p.infer(&input, None);
            for _ in 0..2 {
                let again = p.infer(&input, None);
                assert_eq!(bits(&first.output), bits(&again.output));
            }
        }

        #[test]
        fn dtype_mismatched_requests_are_rejected() {
            let net = conv_net(2).with_dtype(Dtype::Bf16);
            let p = ProtectedPipeline::compile(&net, &[Scheme::GlobalAbft; 3]);
            let fp16_input = Matrix::random(2, 2 * 8 * 8, 31);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.infer(&fp16_input, None)
            }));
            assert!(r.is_err(), "fp16 request into a bf16 pipeline must panic");
        }

        #[test]
        fn faults_in_a_bf16_conv_are_still_detected() {
            let net = conv_net(2).with_dtype(Dtype::Bf16);
            let p = ProtectedPipeline::compile(&net, &[Scheme::ThreadLevelOneSided; 3]);
            let fault = PipelineFault {
                layer: 1,
                fault: FaultPlan {
                    row: 2,
                    col: 3,
                    after_step: u64::MAX,
                    kind: FaultKind::AddValue(200.0),
                },
            };
            let input = Matrix::random_dtype(2, 2 * 8 * 8, 22, Dtype::Bf16);
            let r = p.infer(&input, Some(fault));
            assert!(r.fault_detected());
            assert_eq!(r.detections[0].layer, 1);
        }

        #[test]
        fn partial_requests_reply_with_their_own_rows() {
            let net = conv_net(4);
            let p = ProtectedPipeline::compile(&net, &[Scheme::GlobalAbft; 3]);
            let full = Matrix::random(4, 2 * 8 * 8, 23);
            let rf = p.infer(&full, None);
            let shared = Matrix::from_fn(2, 2 * 8 * 8, |r, c| full.get(r, c));
            let rs = p.infer(&shared, None);
            assert_eq!(rs.output.len(), 2 * 5);
            // Per-image outputs do not depend on the batch they ran in.
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rs.output), bits(&rf.output[..2 * 5]));
        }
    }

    mod graphs {
        use super::*;

        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        /// The GEMM layer index of the last stage whose name ends in
        /// `suffix` (a Fire module's `expand1x1` / `expand3x3`: the
        /// two read the same squeeze output and neither reads the
        /// other).
        fn layer_named(p: &ProtectedPipeline, suffix: &str) -> usize {
            let stage = p.stages.iter().rfind(|s| s.name.ends_with(suffix));
            stage.and_then(Stage::gemm).expect("a Fire expand").layer
        }

        #[test]
        fn branchy_outputs_match_the_parent_commit_bytes() {
            // Recorded where a pass still had a branch-parallel schedule
            // beside the sequential one and the two hashed equal: the
            // stage loop and the immediate slot frees must not move a
            // byte.
            for (net, golden) in [
                (zoo::squeezenet_net(2, 32, 32, 3), 0x38713c81c59f53f9_u64),
                (zoo::resnet_block_net(2, 8, 8, 7), 0xd253253a4b4433fc),
            ] {
                let input = Matrix::random(2, net.input_features(), 77);
                for scheme in [
                    Scheme::ThreadLevelOneSided,
                    Scheme::GlobalAbft,
                    Scheme::Unprotected,
                ] {
                    let p = ProtectedPipeline::compile(&net, &vec![scheme; net.gemm_count()]);
                    let r = p.infer(&input, None);
                    assert!(!r.fault_detected(), "{} {scheme}", net.name);
                    assert_eq!(fnv1a(&r.output), golden, "{} {scheme}", net.name);
                }
            }
        }

        #[test]
        fn gather_and_add_outputs_match_the_parent_commit_bytes() {
            // Recorded at the parent commit, where the embedding gather
            // re-encoded every table element on every request and `Add`
            // decoded and encoded per element: tables encoded once at
            // compile time and the slice codecs must not move a byte.
            // The 1- and 26-table rows were recorded where the
            // interaction still ran a codec per operand: 2 vectors are
            // one pair, 27 are 351 — every length a sliced encode sees.
            let dlrm = |tables| zoo::dlrm_net(8, tables, 1000, 64, 11);
            for (net, dtype, golden) in [
                (dlrm(8), Dtype::F16, 0x464e04c137dc0c1a_u64),
                (dlrm(8), Dtype::Bf16, 0x7e91bf7b9659ec95),
                (dlrm(1), Dtype::F16, 0x663a9e4e7f8b9fc3),
                (dlrm(1), Dtype::Bf16, 0xa874134306fac3af),
                (dlrm(26), Dtype::F16, 0x737ecebbd19b5cf7),
                (dlrm(26), Dtype::Bf16, 0x8f886999b3e90ae9),
                (
                    zoo::resnet_block_net(2, 8, 8, 7),
                    Dtype::Bf16,
                    0x4f14837fb54191cf,
                ),
            ] {
                let net = net.with_dtype(dtype);
                let features = net.input_features();
                let mut input = Matrix::random_dtype(net.batch, features, 77, dtype);
                if net.name == "DLRM" {
                    // Categorical indices after the 13 dense features.
                    for (r, c) in (0..net.batch).flat_map(|r| (13..features).map(move |c| (r, c))) {
                        let index = ((r * 131 + c * 17) % 1000) as f32;
                        input.set(r, c, F16::from_bits(dtype.encode(index)));
                    }
                }
                for scheme in [Scheme::ThreadLevelOneSided, Scheme::GlobalAbft] {
                    let p = ProtectedPipeline::compile(&net, &vec![scheme; net.gemm_count()]);
                    let r = p.infer(&input, None);
                    assert!(!r.fault_detected(), "{} {dtype} {scheme}", net.name);
                    assert_eq!(fnv1a(&r.output), golden, "{} {dtype} {scheme}", net.name);
                }
            }
        }

        #[test]
        fn faults_in_a_fire_expand_report_identically_cold_and_warm() {
            let net = zoo::squeezenet_net(2, 32, 32, 3);
            let schemes = vec![Scheme::ThreadLevelOneSided; net.gemm_count()];
            let p = ProtectedPipeline::compile(&net, &schemes);
            let target = layer_named(&p, "expand3x3");
            let fault = PipelineFault {
                layer: target,
                fault: FaultPlan {
                    row: 1,
                    col: 2,
                    after_step: u64::MAX,
                    kind: FaultKind::AddValue(300.0),
                },
            };
            let input = Matrix::random(2, 3 * 32 * 32, 78);
            // A cold workspace against the second pass through a warm one.
            let a = p.infer(&input, Some(fault));
            let mut ws = Workspace::new();
            p.infer_into(&input, Some(fault), &mut ws);
            let b = p.infer_into(&input, Some(fault), &mut ws);
            assert!(a.fault_detected() && b.fault_detected());
            assert_eq!(a.detections.len(), b.detections.len());
            assert_eq!(a.detections[0].layer, target);
            assert_eq!(b.detections[0].layer, target);
            assert_eq!(a.detections[0].name, b.detections[0].name);
            assert_eq!(bits(&a.output), bits(&b.output));
        }

        #[test]
        fn a_warm_pass_holds_no_f32_output_but_for_what_it_reads() {
            // Every conv of SqueezeNet hands its cells to the next stage
            // as codes only, and its last stage is a pool: a warm pass
            // leaves no f32 output in the workspace under any scheme
            // whose check reads none. Multi-checksum reads it, and so
            // does a repair: those keep one, the largest conv's.
            let net = zoo::squeezenet_v11_net(1, 32, 32, 3);
            let input = input(1, net.input_features());
            let layers = net.to_model().layers;
            let largest = layers.iter().map(|l| l.shape.m * l.shape.n).max();
            let largest = largest.expect("convs") as usize;
            for (scheme, recovery, reads) in [
                (Scheme::Unprotected, false, false),
                (Scheme::ThreadLevelOneSided, false, false),
                (Scheme::ThreadLevelTwoSided, false, false),
                (Scheme::GlobalAbft, false, false),
                (Scheme::ReplicationTraditional, false, false),
                (Scheme::MultiChecksum(2), false, true),
                (Scheme::GlobalAbft, true, true),
            ] {
                let schemes = vec![scheme; net.gemm_count()];
                let p = ProtectedPipeline::compile(&net, &schemes).with_recovery(recovery);
                let mut ws = Workspace::new();
                for _ in 0..2 {
                    p.infer_into(&input, None, &mut ws);
                }
                let held = ws.slot_and_child(None).1.output().c.capacity();
                let what = format!("{scheme} recovery {recovery}: {held} f32");
                assert_eq!(held >= largest, reads, "{what}");
                assert_eq!(held == 0, !reads, "{what}");
            }
        }

        #[test]
        fn recovery_in_a_fire_expand_repairs_in_place() {
            let net = zoo::squeezenet_net(2, 32, 32, 3);
            let schemes = vec![Scheme::ThreadLevelOneSided; net.gemm_count()];
            let p = ProtectedPipeline::compile(&net, &schemes).with_recovery(true);
            let target = layer_named(&p, "expand1x1");
            let input = Matrix::random(2, 3 * 32 * 32, 79);
            let clean = p.infer(&input, None);
            let fault = PipelineFault {
                layer: target,
                fault: FaultPlan {
                    row: 0,
                    col: 1,
                    after_step: u64::MAX,
                    kind: FaultKind::AddValue(300.0),
                },
            };
            let repaired = p.infer(&input, Some(fault));
            assert!(repaired.fault_corrected(), "{:?}", repaired.detections);
            assert!(!repaired.fault_detected());
            assert_eq!(repaired.corrections[0].layer, target);
            assert_eq!(bits(&clean.output), bits(&repaired.output));
        }
    }
}
