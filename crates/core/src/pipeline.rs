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
//!   [`crate::kernel::BoundKernel`], with an optional fused ReLU on the
//!   write-back; or
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
//! Compilation levelizes the stage list by data dependency: stages in
//! one level are mutually independent, and levels that are all-GEMM
//! and heavy enough (≥ [`BRANCH_PAR_MIN_FLOPS`] combined) execute
//! their branches **concurrently** on scoped worker threads, one
//! private child workspace per branch — SqueezeNet's 1×1/3×3 expand
//! pair and ResNet's residual/shortcut convs overlap instead of
//! serializing. The join merges verdicts, detections, and slot
//! write-backs in stage order, so a parallel pass is byte- and
//! report-identical to the sequential schedule; `AIGA_BRANCH_WORKERS`
//! (read at construction) or
//! [`ProtectedPipeline::with_branch_workers`] caps or disables the
//! fan-out.
//!
//! Two construction paths exist:
//!
//! - [`ProtectedPipeline::new`]/[`ProtectedPipeline::uniform`] build the
//!   classic chained-MLP pipeline from an analytic [`Model`] with
//!   synthesized weights (layer `i+1`'s `K` must equal layer `i`'s `N`,
//!   as in DLRM's MLPs);
//! - [`ProtectedPipeline::compile`] builds an executable graph from an
//!   [`aiga_nn::Network`] whose conv/fc nodes carry real FP16 weights —
//!   the execution half of the `Model → ModelPlan → CompiledModel`
//!   path (see [`crate::compiled::CompiledModel`]).
//!
//! Every GEMM stage executes through its scheme's
//! [`crate::kernel::BoundKernel`] (weights bound once at construction —
//! global ABFT's offline checksums included), so the pipeline contains
//! no per-scheme dispatch and serves extension schemes like
//! `Scheme::MultiChecksum` unchanged.

use crate::kernel::{BoundKernel, FaultSite, Verdict};
use crate::registry::{self, SchemeRegistry};
use crate::schemes::Scheme;
use aiga_dtype::Dtype;
use aiga_fp16::F16;
use aiga_gpu::engine::{Detection, FaultPlan, GemmEngine, GemmOutput, Matrix, Workspace};
use aiga_gpu::GemmShape;
use aiga_nn::conv::filters_to_matrix;
use aiga_nn::graph::{embedding_index, Network, NodeOp, NodeRef, PoolKind, PoolParams};
use aiga_nn::{ConvParams, Model};

/// Widest stage level the branch-parallel executor fans out (wider
/// levels run sequentially; no real network in the zoo branches wider).
const MAX_BRANCH: usize = 8;

/// Minimum combined GEMM work (FLOPs) before a branch level fans out to
/// scoped threads: below this, thread-spawn latency dwarfs the overlap
/// win and the level runs sequentially on the calling thread. 2 MFLOP
/// of protected GEMM is several hundred microseconds of work — an
/// order of magnitude past per-thread spawn cost.
const BRANCH_PAR_MIN_FLOPS: u128 = 2 * 1024 * 1024;

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

/// Where a stage reads a value from.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// The (padded) request staged in the workspace's activation buffer.
    Input,
    /// The output slot of an earlier stage.
    Stage(usize),
}

/// Conv-lowering metadata of a GEMM stage.
#[derive(Clone, Copy, Debug)]
struct ConvLowering {
    params: ConvParams,
    /// Input tensor dims `(c, h, w)`.
    in_dims: (usize, usize, usize),
    /// Output spatial dims `(ho, wo)`.
    out_hw: (usize, usize),
    /// 1×1 stride-1 unpadded conv: skip im2col and run the GEMM on a
    /// zero-copy [`aiga_gpu::MatrixLayout::NchwLowered`] view of the
    /// activation buffer (decided once at compile time).
    pointwise: bool,
}

enum StageOp {
    /// A protected GEMM: fc directly, or conv via im2col.
    Gemm {
        bound: Box<dyn BoundKernel>,
        engine: GemmEngine,
        lowering: Option<ConvLowering>,
        relu: bool,
    },
    /// Spatial pooling.
    Pool {
        params: PoolParams,
        in_dims: (usize, usize, usize),
        out_hw: (usize, usize),
    },
    /// Global average pooling to `1 × 1`.
    GlobalAvgPool { in_dims: (usize, usize, usize) },
    /// Channel concatenation; `part_features` holds each input's
    /// flattened per-image width.
    Concat { part_features: Vec<usize> },
    /// Element-wise residual addition.
    Add { relu: bool },
    /// Feature-range slice (codes copied verbatim).
    Slice { offset: usize },
    /// Embedding-bag gathers: feature `t` of the source indexes
    /// `tables[t]`; table values live on the network dtype's grid (the
    /// graph snapped them) so re-encoding to slot codes is lossless.
    EmbeddingBag { tables: Vec<Matrix> },
    /// DLRM pairwise-interaction epilogue; `dim` is the shared vector
    /// width and `part_features` each input's flattened per-image width.
    Interact {
        dim: usize,
        part_features: Vec<usize>,
    },
}

struct Stage {
    name: String,
    op: StageOp,
    srcs: Vec<Src>,
    /// Flattened per-image output width.
    out_features: usize,
    /// Physical workspace slot this stage writes (assigned by
    /// [`assign_slots`]; slots are reused once every consumer has run).
    out_slot: usize,
    /// For GEMM stages: index among the conv/fc layers in execution
    /// order (the fault-targeting and detection-report numbering).
    gemm_idx: Option<usize>,
}

/// Dependency level of every stage: `Input` is level 0's ancestor, and
/// a stage sits one level past its deepest source. Stages sharing a
/// level have no data dependencies among themselves (a dependency
/// would push the consumer's level strictly higher), so a level's
/// members may execute in any order — or concurrently. Computed on the
/// *logical* `Src::Stage(stage index)` references, before
/// [`assign_slots`] rewrites them to physical slots.
fn compute_levels(stages: &[Stage]) -> Vec<usize> {
    let mut levels = vec![0usize; stages.len()];
    for (si, stage) in stages.iter().enumerate() {
        levels[si] = stage
            .srcs
            .iter()
            .map(|src| match src {
                Src::Input => 0,
                Src::Stage(j) => levels[*j] + 1,
            })
            .max()
            .unwrap_or(0);
    }
    levels
}

/// Liveness-based slot assignment: stages are built with *logical*
/// `Src::Stage(stage index)` references; this pass maps each stage's
/// output to a physical workspace slot that is recycled as soon as the
/// last consumer has executed, and rewrites the references. A plain
/// chain degenerates to two ping-pong buffers (the pre-graph memory
/// footprint) instead of one resident activation per stage; branchy
/// graphs keep exactly the values that are still live. A stage's
/// output slot is always allocated *before* its sources are freed, so
/// a stage never reads and writes the same slot. Returns the number of
/// physical slots needed.
///
/// Frees are deferred to *level boundaries*: a slot whose last
/// consumer sits in the current level must not be handed to a sibling
/// of that level, because siblings may execute concurrently while the
/// consumer is still reading it. For chains (every stage its own
/// level) the deferral is a no-op and the assignment is identical to
/// the level-oblivious one.
fn assign_slots(stages: &mut [Stage], levels: &[usize]) -> usize {
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
    let mut pending: Vec<usize> = Vec::new();
    let mut count = 0usize;
    for si in 0..stages.len() {
        if si > 0 && levels[si] != levels[si - 1] {
            free.append(&mut pending);
        }
        for src in &mut stages[si].srcs {
            if let Src::Stage(j) = src {
                *src = Src::Stage(phys_of[*j]);
            }
        }
        let slot = free.pop().unwrap_or_else(|| {
            count += 1;
            count - 1
        });
        phys_of[si] = slot;
        stages[si].out_slot = slot;
        // Queue every value whose last consumer was this stage; the
        // slots become reusable once the level completes.
        for j in 0..si {
            if last_use[j] == si && phys_of[j] != usize::MAX {
                pending.push(phys_of[j]);
                phys_of[j] = usize::MAX;
            }
        }
    }
    count
}

/// One dependency level of the stage list: stages `start..end` are
/// mutually independent. `parallel` marks levels the executor may fan
/// out to scoped worker threads, decided once at compile time: at
/// least two members, all of them GEMMs, not the final stage, no wider
/// than [`MAX_BRANCH`], and combined GEMM work of at least
/// [`BRANCH_PAR_MIN_FLOPS`].
#[derive(Clone, Copy, Debug)]
struct LevelGroup {
    start: usize,
    end: usize,
    parallel: bool,
}

/// Splits the stage list into contiguous equal-level runs and decides
/// which runs are worth branch-parallel execution.
fn build_schedule(stages: &[Stage], levels: &[usize]) -> Vec<LevelGroup> {
    let mut schedule = Vec::new();
    let mut start = 0usize;
    while start < stages.len() {
        let mut end = start + 1;
        while end < stages.len() && levels[end] == levels[start] {
            end += 1;
        }
        let n = end - start;
        let flops: Option<u128> = stages[start..end]
            .iter()
            .map(|s| match &s.op {
                StageOp::Gemm { engine, .. } => {
                    let sh = engine.shape();
                    Some(2 * sh.m as u128 * sh.n as u128 * sh.k as u128)
                }
                _ => None,
            })
            .sum();
        let parallel = (2..=MAX_BRANCH).contains(&n)
            && end < stages.len()
            && flops.is_some_and(|f| f >= BRANCH_PAR_MIN_FLOPS);
        schedule.push(LevelGroup {
            start,
            end,
            parallel,
        });
        start = end;
    }
    schedule
}

/// Construction-time read of the branch-parallelism override: the hot
/// path never touches the environment. `AIGA_BRANCH_WORKERS=1` forces
/// every level sequential; higher values cap the fan-out.
fn env_branch_workers() -> Option<usize> {
    std::env::var("AIGA_BRANCH_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|w| w.max(1))
}

/// A protected inference pipeline over GEMM and epilogue stages.
pub struct ProtectedPipeline {
    batch: usize,
    input_features: usize,
    output_features: usize,
    stages: Vec<Stage>,
    /// Dependency-levelized execution schedule over `stages` (see
    /// [`build_schedule`]): Fire-module squeeze/expand pairs and
    /// residual branches land in shared levels that can fan out.
    schedule: Vec<LevelGroup>,
    gemm_count: usize,
    slot_count: usize,
    /// Worker-thread cap for branch-parallel levels. `None` defers to
    /// [`aiga_util::effective_workers`] at run time; `Some(1)` forces
    /// sequential execution. Resolved at construction from
    /// `AIGA_BRANCH_WORKERS` or [`Self::with_branch_workers`].
    branch_workers: Option<usize>,
    /// Storage dtype of activations and weights: slot write-backs
    /// encode into this format's codes and epilogue stages decode
    /// through it. Set from the compiled [`Network::dtype`]; MLP-chain
    /// pipelines are fp16.
    dtype: Dtype,
    /// When set, a detected fault triggers localization + targeted
    /// recompute *at the flagging stage* (the pass never re-runs), and
    /// resolved faults surface as [`LayerCorrection`]s. Off by default:
    /// detect-only is the paper's behavior.
    recovery: bool,
}

impl ProtectedPipeline {
    /// Builds a chained-MLP pipeline from a model and a per-layer scheme
    /// assignment (one scheme per layer), resolving schemes through the
    /// shared built-in registry. Weights are deterministic
    /// pseudo-random, scaled like normalized NN weights. Panics if the
    /// model's layers do not chain (`K[i+1] != N[i]`) or
    /// `schemes.len() != layers`.
    pub fn new(model: &Model, schemes: &[Scheme], seed: u64) -> Self {
        Self::with_registry(registry::shared(), model, schemes, seed)
    }

    /// [`Self::new`] with an explicit scheme registry.
    pub fn with_registry(
        registry: &SchemeRegistry,
        model: &Model,
        schemes: &[Scheme],
        seed: u64,
    ) -> Self {
        assert_eq!(
            schemes.len(),
            model.layers.len(),
            "one scheme per layer required"
        );
        for pair in model.layers.windows(2) {
            assert_eq!(
                pair[1].shape.k, pair[0].shape.n,
                "layers {} -> {} do not chain",
                pair[0].name, pair[1].name
            );
        }
        let batch = model.layers[0].shape.m as usize;
        let depth = model.layers.len();
        let mut stages: Vec<Stage> = model
            .layers
            .iter()
            .zip(schemes)
            .enumerate()
            .map(|(i, (l, &scheme))| {
                let k = l.shape.k as usize;
                let n = l.shape.n as usize;
                // Weight scale ~ 1/sqrt(K) keeps activations O(1) through
                // depth, like trained networks.
                let raw = Matrix::random(k, n, seed.wrapping_add(i as u64 * 7919));
                let scale = F16::from_f64(1.0 / (k as f64).sqrt());
                let weights = Matrix::from_fn(k, n, |r, c| raw.get(r, c) * scale);
                let engine = GemmEngine::with_default_tiling(GemmShape::new(
                    l.shape.m, l.shape.n, l.shape.k,
                ));
                Stage {
                    name: l.name.clone(),
                    op: StageOp::Gemm {
                        bound: registry.resolve(scheme).bind(&weights),
                        engine,
                        lowering: None,
                        relu: i + 1 < depth,
                    },
                    srcs: vec![if i == 0 {
                        Src::Input
                    } else {
                        Src::Stage(i - 1)
                    }],
                    out_features: n,
                    out_slot: 0,
                    gemm_idx: Some(i),
                }
            })
            .collect();
        let levels = compute_levels(&stages);
        let slot_count = assign_slots(&mut stages, &levels);
        let schedule = build_schedule(&stages, &levels);
        ProtectedPipeline {
            batch,
            input_features: model.layers[0].shape.k as usize,
            output_features: model.layers[depth - 1].shape.n as usize,
            stages,
            schedule,
            gemm_count: depth,
            slot_count,
            branch_workers: env_branch_workers(),
            dtype: Dtype::F16,
            recovery: false,
        }
    }

    /// Builds a pipeline protecting every layer with one fixed scheme.
    pub fn uniform(model: &Model, scheme: Scheme, seed: u64) -> Self {
        Self::new(model, &vec![scheme; model.layers.len()], seed)
    }

    /// Compiles an executable [`Network`] — real FP16 weights, conv and
    /// epilogue nodes — against a per-GEMM-layer scheme assignment
    /// (`schemes[i]` protects the `i`-th conv/fc node in execution
    /// order, matching [`Network::to_model`]'s layer order). Resolves
    /// through the shared built-in registry.
    pub fn compile(net: &Network, schemes: &[Scheme]) -> Self {
        Self::compile_with_registry(registry::shared(), net, schemes)
    }

    /// [`Self::compile`] with an explicit scheme registry.
    pub fn compile_with_registry(
        registry: &SchemeRegistry,
        net: &Network,
        schemes: &[Scheme],
    ) -> Self {
        assert_eq!(
            schemes.len(),
            net.gemm_count(),
            "one scheme per conv/fc layer required"
        );
        let batch = net.batch;
        let dtype = net.dtype;
        // Weight values sit on the dtype's grid already (Network::
        // with_dtype snapped them), so re-encoding into raw dtype codes
        // is lossless; fp16 networks keep their matrices untouched.
        let encode_weights = |m: Matrix| -> Matrix {
            if dtype == Dtype::F16 {
                return m;
            }
            let coded = Matrix::from_fn(m.rows, m.cols, |r, c| {
                F16::from_bits(dtype.encode(m.get(r, c).to_f32()))
            });
            coded.with_dtype(dtype)
        };
        let mut node_src: Vec<Src> = Vec::with_capacity(net.nodes.len());
        let mut stages: Vec<Stage> = Vec::new();
        let mut next_scheme = schemes.iter().copied();
        let mut next_gemm = 0usize;
        for node in &net.nodes {
            let srcs: Vec<Src> = node
                .inputs
                .iter()
                .map(|&r| match r {
                    NodeRef::Input => Src::Input,
                    NodeRef::Node(j) => node_src[j],
                })
                .collect();
            let out_features = node.out_dims.0 * node.out_dims.1 * node.out_dims.2;
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
                    let in_dims = net.dims_of(node.inputs[0]);
                    let (ho, wo) = params.out_dims(in_dims.1, in_dims.2);
                    let wmat = encode_weights(filters_to_matrix(weights));
                    let shape = GemmShape::new(
                        (batch * ho * wo) as u64,
                        params.c_out as u64,
                        wmat.rows as u64,
                    );
                    StageOp::Gemm {
                        bound: registry
                            .resolve(next_scheme.next().expect("scheme per layer"))
                            .bind(&wmat),
                        engine: GemmEngine::with_default_tiling(shape),
                        lowering: Some(ConvLowering {
                            params: *params,
                            in_dims,
                            out_hw: (ho, wo),
                            pointwise: params.is_pointwise(),
                        }),
                        relu: *relu,
                    }
                }
                NodeOp::Fc { weights, relu } => {
                    let shape =
                        GemmShape::new(batch as u64, weights.cols as u64, weights.rows as u64);
                    let wmat = encode_weights(weights.clone());
                    StageOp::Gemm {
                        bound: registry
                            .resolve(next_scheme.next().expect("scheme per layer"))
                            .bind(&wmat),
                        engine: GemmEngine::with_default_tiling(shape),
                        lowering: None,
                        relu: *relu,
                    }
                }
                NodeOp::Pool(p) => StageOp::Pool {
                    params: *p,
                    in_dims: net.dims_of(node.inputs[0]),
                    out_hw: (node.out_dims.1, node.out_dims.2),
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
                    tables: tables.clone(),
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
            let gemm_idx = matches!(op, StageOp::Gemm { .. }).then(|| {
                next_gemm += 1;
                next_gemm - 1
            });
            stages.push(Stage {
                name: node.name.clone(),
                op,
                srcs,
                out_features,
                out_slot: 0,
                gemm_idx,
            });
            node_src.push(Src::Stage(stages.len() - 1));
        }
        let levels = compute_levels(&stages);
        let slot_count = assign_slots(&mut stages, &levels);
        let schedule = build_schedule(&stages, &levels);
        ProtectedPipeline {
            batch,
            input_features: net.input_features(),
            output_features: net.output_features(),
            stages,
            schedule,
            gemm_count: net.gemm_count(),
            slot_count,
            branch_workers: env_branch_workers(),
            dtype,
            recovery: false,
        }
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

    /// Caps how many worker threads a branch-parallel level may fan out
    /// to (`1` forces sequential execution; values are clamped to at
    /// least 1). Levels below the FLOPs gate run sequentially
    /// regardless. Overrides the `AIGA_BRANCH_WORKERS` environment
    /// variable read at construction.
    pub fn with_branch_workers(mut self, workers: usize) -> Self {
        self.branch_workers = Some(workers.max(1));
        self
    }

    /// Number of compiled stage levels eligible for branch-parallel
    /// execution (Fire-module expand pairs, residual branches, …).
    pub fn parallel_level_count(&self) -> usize {
        self.schedule.iter().filter(|g| g.parallel).count()
    }

    /// The storage dtype this pipeline executes in.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Number of GEMM (conv/fc) layers.
    pub fn depth(&self) -> usize {
        self.gemm_count
    }

    /// Batch size (rows of the input this pipeline expects).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Input feature width (flattened `C·H·W`, or `K` of the first
    /// layer for MLP chains).
    pub fn input_features(&self) -> usize {
        self.input_features
    }

    /// Output feature width of the final stage.
    pub fn output_features(&self) -> usize {
        self.output_features
    }

    /// Per-GEMM-layer scheme assignment, in execution order.
    pub fn schemes(&self) -> Vec<Scheme> {
        self.stages
            .iter()
            .filter_map(|s| match &s.op {
                StageOp::Gemm { bound, .. } => Some(bound.scheme()),
                _ => None,
            })
            .collect()
    }

    /// Runs protected inference on `input` (rows ≤ batch, flattened
    /// input features), optionally injecting one fault. Convenience
    /// over [`Self::infer_into`] with a throwaway workspace.
    pub fn infer(&self, input: &Matrix, fault: Option<PipelineFault>) -> InferenceReport {
        self.infer_into(input, fault, &mut Workspace::new())
    }

    /// Runs protected inference entirely inside `ws` — the serving hot
    /// path. One workspace is reused across all stages of this request:
    /// GEMM scratch, conv `im2col` lowering, and the per-stage FP16
    /// value slots all live in `ws`, so callers that hold it across
    /// requests (the `Session` checkout pool) reach a steady state
    /// where the only per-request allocation is the returned report's
    /// output vector.
    ///
    /// Requests with fewer rows than the pipeline batch are padded up
    /// with zero rows (batching serving systems dispatch to fixed
    /// bucket sizes) and the report's output is cropped back to
    /// `input.rows × output_features`.
    pub fn infer_into(
        &self,
        input: &Matrix,
        fault: Option<PipelineFault>,
        ws: &mut Workspace,
    ) -> InferenceReport {
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
        let rows = input.rows;
        let batch = self.batch;
        // Stage the (padded) input into the workspace's activation
        // buffer. The buffer is moved out around each engine call so it
        // can be the engine's input while the engine mutably borrows
        // the same workspace; the moves shuffle pointers, not data.
        let mut act = std::mem::take(ws.activations_mut());
        input.copy_padded_into(batch, input.cols, &mut act);
        ws.ensure_slots(self.slot_count);
        let mut detections = Vec::new();
        let mut corrections = Vec::new();
        let mut final_output = Vec::new();
        for group in &self.schedule {
            let n = group.end - group.start;
            // Fan-out decision: compile time marked the level safe and
            // worth the spawn cost; run time asks how many workers to
            // use — the construction-time override, else the machine's
            // effective parallelism (1 on saturated or single-core
            // hosts, which collapses the level to sequential).
            let workers = if group.parallel {
                self.branch_workers
                    .unwrap_or_else(|| aiga_util::effective_workers(n))
                    .min(n)
            } else {
                1
            };
            if workers >= 2 {
                self.run_group_parallel(
                    group.start,
                    group.end,
                    fault,
                    ws,
                    &act,
                    &mut detections,
                    &mut corrections,
                );
            } else {
                for si in group.start..group.end {
                    self.run_stage_sequential(
                        si,
                        fault,
                        ws,
                        &mut act,
                        &mut detections,
                        &mut corrections,
                        &mut final_output,
                        rows,
                    );
                }
            }
        }

        *ws.activations_mut() = act;
        InferenceReport {
            output: final_output,
            detections,
            corrections,
        }
    }

    /// Executes one stage on the calling thread — the sequential
    /// regime. A GEMM stage moves its source value out of the
    /// workspace around the engine call (exclusive workspace access
    /// makes that safe here, unlike inside a parallel level).
    #[allow(clippy::too_many_arguments)]
    fn run_stage_sequential(
        &self,
        si: usize,
        fault: Option<PipelineFault>,
        ws: &mut Workspace,
        act: &mut Matrix,
        detections: &mut Vec<LayerDetection>,
        corrections: &mut Vec<LayerCorrection>,
        final_output: &mut Vec<f32>,
        rows: usize,
    ) {
        let stage = &self.stages[si];
        let is_last = si + 1 == self.stages.len();
        let dt = self.dtype;
        let batch = self.batch;
        match &stage.op {
            StageOp::Gemm {
                bound,
                engine,
                lowering,
                relu,
            } => {
                let gemm_idx = stage.gemm_idx.expect("GEMM stages carry a layer index");
                // Borrow the (at most one) fault aimed at this GEMM
                // layer as a slice; no per-layer allocation.
                let layer_fault: Option<FaultPlan> =
                    fault.and_then(|f| (f.layer == gemm_idx).then_some(f.fault));
                // Move the source value out of the workspace so the
                // engine can mutably borrow `ws` while reading it.
                let (src_slot, mut src) = match stage.srcs[0] {
                    Src::Input => (None, std::mem::take(act)),
                    Src::Stage(j) => (Some(j), ws.take_slot(j)),
                };
                let verdict = match lowering {
                    None => {
                        let mut v = bound.run_into(engine, &src, layer_fault.as_slice(), ws);
                        if self.recovery && v.is_detected() {
                            v = bound.correct_into(engine, &src, ws, v);
                        }
                        v
                    }
                    Some(low) if low.pointwise => {
                        // 1×1 stride-1 unpadded conv: the lowered
                        // activation matrix is a pure relabeling of
                        // the NCHW buffer, so run the protected GEMM
                        // on a zero-copy view of it — no im2col.
                        let (c, h, w) = low.in_dims;
                        debug_assert_eq!(src.data.len(), batch * c * h * w);
                        let a =
                            Matrix::nchw_lowered(batch, c, h * w, std::mem::take(&mut src.data))
                                .with_dtype(dt);
                        let mut v = bound.run_into(engine, &a, layer_fault.as_slice(), ws);
                        if self.recovery && v.is_detected() {
                            v = bound.correct_into(engine, &a, ws, v);
                        }
                        src.data = a.data;
                        v
                    }
                    Some(low) => {
                        // Implicit GEMM: the engine's panel staging
                        // gathers straight from the NCHW buffer
                        // through a zero-copy im2col view, so the
                        // lowered matrix never exists. The view
                        // reads raw storage codes (padding taps are
                        // the zero code in every dtype), so it
                        // carries the tag over.
                        let (c, h, w) = low.in_dims;
                        debug_assert_eq!(src.data.len(), batch * c * h * w);
                        let a = Matrix::im2col_lowered(
                            batch,
                            low.params.im2col_view(c, h, w),
                            std::mem::take(&mut src.data),
                        )
                        .with_dtype(dt);
                        let mut v = bound.run_into(engine, &a, layer_fault.as_slice(), ws);
                        if self.recovery && v.is_detected() {
                            v = bound.correct_into(engine, &a, ws, v);
                        }
                        src.data = a.data;
                        v
                    }
                };
                match src_slot {
                    None => *act = src,
                    Some(j) => ws.put_slot(j, src),
                }

                record_gemm_outcome(
                    gemm_idx,
                    &stage.name,
                    bound.scheme(),
                    &ws.output().detections,
                    verdict,
                    detections,
                    corrections,
                );

                if is_last {
                    let out = ws.output();
                    match lowering {
                        None => {
                            // Crop to the request rows; final fc
                            // output stays raw f32 (ReLU only if the
                            // layer fuses one).
                            final_output.reserve_exact(rows * out.n);
                            for &v in &out.c[..rows * out.n] {
                                final_output.push(if *relu { v.max(0.0) } else { v });
                            }
                        }
                        Some(low) => {
                            final_output.reserve_exact(rows * out.n * low.out_hw.0 * low.out_hw.1);
                            conv_output_nchw(out.c.as_slice(), rows, out.n, low, *relu, |v| {
                                final_output.push(v)
                            });
                        }
                    }
                } else {
                    // Write back to this stage's FP16 value slot,
                    // fusing the ReLU epilogue into the
                    // down-conversion (full batch: padded images
                    // stay zero through every op).
                    let mut dst = ws.take_slot(stage.out_slot);
                    encode_gemm_output(
                        ws.output(),
                        lowering.as_ref(),
                        *relu,
                        batch,
                        stage.out_features,
                        dt,
                        &mut dst,
                    );
                    ws.put_slot(stage.out_slot, dst);
                }
            }

            // Epilogue stages: pure FP16 slot-to-slot computation.
            _ => {
                let mut dst = ws.take_slot(stage.out_slot);
                dst.rows = batch;
                dst.cols = stage.out_features;
                dst.dtype = dt;
                dst.data.clear();
                {
                    let get = |r: Src| -> &Matrix {
                        match r {
                            Src::Input => &*act,
                            Src::Stage(j) => ws.slot(j),
                        }
                    };
                    match &stage.op {
                        StageOp::Pool {
                            params,
                            in_dims,
                            out_hw,
                        } => pool_stage(
                            get(stage.srcs[0]),
                            batch,
                            *in_dims,
                            params,
                            *out_hw,
                            dt,
                            &mut dst,
                        ),
                        StageOp::GlobalAvgPool { in_dims } => {
                            global_avg_stage(get(stage.srcs[0]), batch, *in_dims, dt, &mut dst)
                        }
                        StageOp::Concat { part_features } => {
                            for n in 0..batch {
                                for (&r, &f) in stage.srcs.iter().zip(part_features) {
                                    let src = get(r);
                                    dst.data.extend_from_slice(&src.data[n * f..(n + 1) * f]);
                                }
                            }
                        }
                        StageOp::Add { relu } => {
                            let a = get(stage.srcs[0]);
                            let b = get(stage.srcs[1]);
                            dst.data.extend(a.data.iter().zip(&b.data).map(|(x, y)| {
                                let v = dt.decode(x.to_bits()) + dt.decode(y.to_bits());
                                F16::from_bits(dt.encode(if *relu { v.max(0.0) } else { v }))
                            }));
                        }
                        StageOp::Slice { offset } => {
                            let src = get(stage.srcs[0]);
                            let f = src.cols;
                            for n in 0..batch {
                                dst.data.extend_from_slice(
                                    &src.data[n * f + offset..n * f + offset + stage.out_features],
                                );
                            }
                        }
                        StageOp::EmbeddingBag { tables } => {
                            let src = get(stage.srcs[0]);
                            let t_count = tables.len();
                            for n in 0..batch {
                                for (t, table) in tables.iter().enumerate() {
                                    let idx = embedding_index(
                                        dt.decode(src.data[n * t_count + t].to_bits()),
                                        table.rows,
                                    );
                                    dst.data.extend(
                                        table.data[idx * table.cols..(idx + 1) * table.cols]
                                            .iter()
                                            .map(|w| F16::from_bits(dt.encode(w.to_f32()))),
                                    );
                                }
                            }
                        }
                        StageOp::Interact { dim, part_features } => {
                            let total: usize = part_features.iter().sum();
                            let m = total / dim;
                            for n in 0..batch {
                                // Value `f` of the virtual concatenation
                                // of the inputs for image `n`.
                                let feat = |f: usize| -> f32 {
                                    let mut rem = f;
                                    for (&r, &pf) in stage.srcs.iter().zip(part_features) {
                                        if rem < pf {
                                            return dt.decode(get(r).data[n * pf + rem].to_bits());
                                        }
                                        rem -= pf;
                                    }
                                    unreachable!("interact feature index in range")
                                };
                                // First vector's codes pass through
                                // verbatim (they are already on-grid).
                                let first = get(stage.srcs[0]);
                                let pf0 = part_features[0];
                                dst.data
                                    .extend_from_slice(&first.data[n * pf0..n * pf0 + dim]);
                                for vi in 0..m {
                                    for vj in vi + 1..m {
                                        let mut dot = 0.0f32;
                                        for x in 0..*dim {
                                            dot += feat(vi * dim + x) * feat(vj * dim + x);
                                        }
                                        dst.data.push(F16::from_bits(dt.encode(dot)));
                                    }
                                }
                            }
                        }
                        StageOp::Gemm { .. } => unreachable!("handled above"),
                    }
                }
                if is_last {
                    final_output.reserve_exact(rows * stage.out_features);
                    final_output.extend(
                        dst.data[..rows * stage.out_features]
                            .iter()
                            .map(|v| dt.decode(v.to_bits())),
                    );
                }
                ws.put_slot(stage.out_slot, dst);
            }
        }
    }

    /// Executes one independence level's GEMM branches concurrently —
    /// one scoped worker thread per branch, each on a private child
    /// workspace from the pool, all reading the level's input slots
    /// (and the staged request) immutably. The join merges verdicts,
    /// detections, and slot write-backs in stage order, so reports and
    /// slot bytes are identical to sequential execution.
    #[allow(clippy::too_many_arguments)]
    fn run_group_parallel(
        &self,
        start: usize,
        end: usize,
        fault: Option<PipelineFault>,
        ws: &mut Workspace,
        act: &Matrix,
        detections: &mut Vec<LayerDetection>,
        corrections: &mut Vec<LayerCorrection>,
    ) {
        let n = end - start;
        let batch = self.batch;
        let dt = self.dtype;
        let recovery = self.recovery;
        // Take each branch's destination slot out of the workspace
        // before splitting the borrow: the slot table then holds
        // exactly the level's inputs, which the branches share
        // read-only (assign_slots defers intra-level frees, so no
        // branch's destination aliases a sibling's source).
        let mut dsts: [Matrix; MAX_BRANCH] = std::array::from_fn(|_| Matrix::default());
        for (dst, si) in dsts.iter_mut().zip(start..end) {
            *dst = ws.take_slot(self.stages[si].out_slot);
        }
        let mut verdicts: [Option<Verdict>; MAX_BRANCH] = [None; MAX_BRANCH];
        {
            let (slots, pool) = ws.branch_split(n);
            std::thread::scope(|scope| {
                for (((si, dst), verdict), bws) in (start..end)
                    .zip(dsts[..n].iter_mut())
                    .zip(verdicts[..n].iter_mut())
                    .zip(pool.iter_mut())
                {
                    let stage = &self.stages[si];
                    let gemm_idx = stage
                        .gemm_idx
                        .expect("parallel levels contain only GEMM stages");
                    let layer_fault: Option<FaultPlan> =
                        fault.and_then(|f| (f.layer == gemm_idx).then_some(f.fault));
                    let src: &Matrix = match stage.srcs[0] {
                        Src::Input => act,
                        Src::Stage(j) => &slots[j],
                    };
                    scope.spawn(move || {
                        // Branch bodies run as workers so the engine's
                        // own stripe parallelism collapses to
                        // sequential inside them — one thread per
                        // branch, no nested fan-out.
                        aiga_util::as_worker(|| {
                            *verdict = Some(run_branch_gemm(
                                stage,
                                src,
                                layer_fault,
                                recovery,
                                batch,
                                dt,
                                bws,
                                dst,
                            ));
                        });
                    });
                }
            });
        }
        // Join in stage order: identical report and slot state to the
        // sequential schedule, independent of thread timing.
        for (gi, si) in (start..end).enumerate() {
            let stage = &self.stages[si];
            let StageOp::Gemm { bound, .. } = &stage.op else {
                unreachable!("parallel levels contain only GEMM stages");
            };
            let verdict = verdicts[gi].expect("every branch ran to completion");
            {
                let (_, pool) = ws.branch_split(n);
                record_gemm_outcome(
                    stage.gemm_idx.expect("GEMM stages carry a layer index"),
                    &stage.name,
                    bound.scheme(),
                    &pool[gi].output().detections,
                    verdict,
                    detections,
                    corrections,
                );
            }
            ws.put_slot(stage.out_slot, std::mem::take(&mut dsts[gi]));
        }
    }
}

/// The body one branch worker runs inside a parallel level: the
/// protected GEMM (with optional recovery) on a private child
/// workspace, then the FP16 slot encode into `dst`. Returns the
/// kernel's verdict for the stage-order merge.
#[allow(clippy::too_many_arguments)]
fn run_branch_gemm(
    stage: &Stage,
    src: &Matrix,
    layer_fault: Option<FaultPlan>,
    recovery: bool,
    batch: usize,
    dt: Dtype,
    bws: &mut Workspace,
    dst: &mut Matrix,
) -> Verdict {
    let StageOp::Gemm {
        bound,
        engine,
        lowering,
        relu,
    } = &stage.op
    else {
        unreachable!("parallel levels contain only GEMM stages");
    };
    let verdict = match lowering {
        None => {
            let mut v = bound.run_into(engine, src, layer_fault.as_slice(), bws);
            if recovery && v.is_detected() {
                v = bound.correct_into(engine, src, bws, v);
            }
            v
        }
        Some(low) => {
            // Sequential execution moves the shared slot's buffer into
            // the lowered view; a parallel branch cannot, because its
            // siblings read the same slot concurrently. It stages a
            // byte-identical copy into its private lowering scratch
            // instead (the buffer ratchets, so the steady state
            // allocates nothing) and wraps the same zero-copy view
            // around the copy.
            let (c, h, w) = low.in_dims;
            debug_assert_eq!(src.data.len(), batch * c * h * w);
            let mut scratch = bws.take_lowering();
            scratch.data.clear();
            scratch.data.extend_from_slice(&src.data);
            let a = if low.pointwise {
                Matrix::nchw_lowered(batch, c, h * w, std::mem::take(&mut scratch.data))
            } else {
                Matrix::im2col_lowered(
                    batch,
                    low.params.im2col_view(c, h, w),
                    std::mem::take(&mut scratch.data),
                )
            }
            .with_dtype(dt);
            let mut v = bound.run_into(engine, &a, layer_fault.as_slice(), bws);
            if recovery && v.is_detected() {
                v = bound.correct_into(engine, &a, bws, v);
            }
            scratch.data = a.data;
            bws.put_lowering(scratch);
            v
        }
    };
    encode_gemm_output(
        bws.output(),
        lowering.as_ref(),
        *relu,
        batch,
        stage.out_features,
        dt,
        dst,
    );
    verdict
}

/// Records one GEMM stage's outcome into the report vectors — shared
/// verbatim by the sequential and branch-parallel regimes so the two
/// schedules produce identical reports.
fn record_gemm_outcome(
    gemm_idx: usize,
    name: &str,
    scheme: Scheme,
    kernel_detections: &[Detection],
    verdict: Verdict,
    detections: &mut Vec<LayerDetection>,
    corrections: &mut Vec<LayerCorrection>,
) {
    // Thread-level detections come out of the kernel itself, with
    // per-tile provenance.
    for d in kernel_detections {
        detections.push(LayerDetection {
            layer: gemm_idx,
            name: name.to_string(),
            scheme,
            residual: d.residual,
        });
    }
    // Kernel-level verdicts (global ABFT's deferred reduce-and-compare,
    // §2.5 step 5) have no thread provenance; record them once.
    if kernel_detections.is_empty() {
        if let Verdict::Detected { residual, .. } = verdict {
            detections.push(LayerDetection {
                layer: gemm_idx,
                name: name.to_string(),
                scheme,
                residual,
            });
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
        corrections.push(LayerCorrection {
            layer: gemm_idx,
            name: name.to_string(),
            scheme,
            site,
            vote,
            residual,
        });
    }
}

/// Encodes a GEMM output into a stage's FP16 value slot, fusing the
/// ReLU epilogue into the down-conversion (full batch: padded images
/// stay zero through every op). Shared by the sequential and
/// branch-parallel write-back paths.
fn encode_gemm_output(
    out: &GemmOutput,
    lowering: Option<&ConvLowering>,
    relu: bool,
    batch: usize,
    out_features: usize,
    dt: Dtype,
    dst: &mut Matrix,
) {
    dst.rows = batch;
    dst.cols = out_features;
    dst.dtype = dt;
    dst.data.clear();
    match lowering {
        None => {
            dst.data.extend(out.c.iter().map(|&v| {
                let v = if relu { v.max(0.0) } else { v };
                F16::from_bits(dt.encode(v))
            }));
        }
        Some(low) => {
            conv_output_nchw(out.c.as_slice(), batch, out.n, low, relu, |v| {
                dst.data.push(F16::from_bits(dt.encode(v)))
            });
        }
    }
}

/// Walks a lowered-conv GEMM output (rows `(n, oy, ox)`-major, columns
/// `c_out`) in flattened-NCHW emission order for `images` images,
/// applying the fused ReLU, and hands each value to `emit` — the one
/// place the GEMM→NCHW transpose lives, shared by the final-output and
/// slot write-back paths.
fn conv_output_nchw(
    c: &[f32],
    images: usize,
    out_n: usize,
    low: &ConvLowering,
    relu: bool,
    mut emit: impl FnMut(f32),
) {
    let spatial = low.out_hw.0 * low.out_hw.1;
    for n in 0..images {
        for co in 0..out_n {
            for s in 0..spatial {
                let v = c[(n * spatial + s) * out_n + co];
                emit(if relu { v.max(0.0) } else { v });
            }
        }
    }
}

/// One pooling stage over a flat NCHW FP16 value (max skips
/// out-of-bounds cells; avg divides by the in-bounds cell count —
/// mirrored exactly by `Network::reference_f64`).
fn pool_stage(
    src: &Matrix,
    batch: usize,
    in_dims: (usize, usize, usize),
    p: &PoolParams,
    out_hw: (usize, usize),
    dt: Dtype,
    dst: &mut Matrix,
) {
    let (c, h, w) = in_dims;
    let (ho, wo) = out_hw;
    let in_features = c * h * w;
    for n in 0..batch {
        let img = &src.data[n * in_features..(n + 1) * in_features];
        for ch in 0..c {
            let plane = &img[ch * h * w..(ch + 1) * h * w];
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut best = f32::NEG_INFINITY;
                    let mut acc = 0.0f32;
                    let mut cells = 0u32;
                    for ky in 0..p.kernel {
                        for kx in 0..p.kernel {
                            let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                            let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                            if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                continue;
                            }
                            let v = dt.decode(plane[iy as usize * w + ix as usize].to_bits());
                            best = best.max(v);
                            acc += v;
                            cells += 1;
                        }
                    }
                    let v = match p.kind {
                        PoolKind::Max => {
                            if cells == 0 {
                                0.0
                            } else {
                                best
                            }
                        }
                        PoolKind::Avg => {
                            if cells == 0 {
                                0.0
                            } else {
                                acc / cells as f32
                            }
                        }
                    };
                    dst.data.push(F16::from_bits(dt.encode(v)));
                }
            }
        }
    }
}

/// Global average pooling to `1 × 1` per channel.
fn global_avg_stage(
    src: &Matrix,
    batch: usize,
    in_dims: (usize, usize, usize),
    dt: Dtype,
    dst: &mut Matrix,
) {
    let (c, h, w) = in_dims;
    let in_features = c * h * w;
    for n in 0..batch {
        let img = &src.data[n * in_features..(n + 1) * in_features];
        for ch in 0..c {
            let plane = &img[ch * h * w..(ch + 1) * h * w];
            let acc: f32 = plane.iter().map(|v| dt.decode(v.to_bits())).sum();
            dst.data
                .push(F16::from_bits(dt.encode(acc / (h * w) as f32)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiga_gpu::engine::FaultKind;
    use aiga_nn::zoo;

    fn input(batch: usize, features: usize) -> Matrix {
        Matrix::random(batch, features, 4242)
    }

    #[test]
    fn clean_dlrm_bottom_inference_raises_nothing() {
        let model = zoo::dlrm_mlp_bottom(16);
        for scheme in [Scheme::GlobalAbft, Scheme::ThreadLevelOneSided] {
            let p = ProtectedPipeline::uniform(&model, scheme, 1);
            let r = p.infer(&input(16, 13), None);
            assert!(!r.fault_detected(), "{scheme}: {:?}", r.detections.first());
            assert_eq!(r.output.len(), 16 * 64);
        }
    }

    #[test]
    fn fault_in_a_middle_layer_is_caught_at_that_layer() {
        let model = zoo::dlrm_mlp_bottom(16);
        let p = ProtectedPipeline::uniform(&model, Scheme::ThreadLevelOneSided, 2);
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
        let p = ProtectedPipeline::new(&model, &schemes, 3);
        assert_eq!(p.schemes(), schemes);
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
    fn unprotected_pipeline_silently_corrupts() {
        let model = zoo::dlrm_mlp_bottom(8);
        let p = ProtectedPipeline::uniform(&model, Scheme::Unprotected, 4);
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
        let p = ProtectedPipeline::uniform(&model, Scheme::MultiChecksum(2), 6);
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

    #[test]
    #[should_panic(expected = "do not chain")]
    fn non_chaining_models_are_rejected() {
        let model = aiga_nn::Model::new(
            "broken",
            vec![
                aiga_nn::LinearLayer::fc("a", 8, 16, 32),
                aiga_nn::LinearLayer::fc("b", 8, 64, 32), // K != previous N
            ],
        );
        ProtectedPipeline::uniform(&model, Scheme::GlobalAbft, 0);
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
            let chain = ProtectedPipeline::uniform(&zoo::dlrm_mlp_bottom(8), Scheme::GlobalAbft, 1);
            assert_eq!(chain.slot_count, 2);
            // Branchy graphs keep only the values that are still live:
            // SqueezeNet's 34 stages need a handful of slots, not 34.
            let net = zoo::squeezenet_net(1, 32, 32, 3);
            let p = ProtectedPipeline::compile(&net, &vec![Scheme::GlobalAbft; net.gemm_count()]);
            assert!(
                p.slot_count <= 6,
                "fire modules should recycle dead slots (got {})",
                p.slot_count
            );
            assert!(p.slot_count < p.stages.len());
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
        fn padded_requests_crop_to_the_request_rows() {
            let net = conv_net(4);
            let p = ProtectedPipeline::compile(&net, &[Scheme::GlobalAbft; 3]);
            let full = Matrix::random(4, 2 * 8 * 8, 23);
            let rf = p.infer(&full, None);
            let shared = Matrix::from_fn(2, 2 * 8 * 8, |r, c| full.get(r, c));
            let rs = p.infer(&shared, None);
            assert_eq!(rs.output.len(), 2 * 5);
            // Per-image outputs are padding-independent.
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rs.output), bits(&rf.output[..2 * 5]));
        }
    }

    mod branch_parallel {
        use super::*;

        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        #[test]
        fn squeezenet_compiles_parallel_fire_expand_levels() {
            let net = zoo::squeezenet_net(1, 32, 32, 3);
            let p = ProtectedPipeline::compile(&net, &vec![Scheme::GlobalAbft; net.gemm_count()]);
            // Fire modules deep enough to clear the FLOPs gate form
            // parallel 1×1/3×3 expand levels; the early tiny ones and
            // every chain stage stay sequential.
            assert!(
                p.parallel_level_count() >= 2,
                "{}",
                p.parallel_level_count()
            );
            assert!(p.parallel_level_count() < p.schedule.len());
            // Parallel levels only ever contain GEMM stages.
            for g in p.schedule.iter().filter(|g| g.parallel) {
                for s in &p.stages[g.start..g.end] {
                    assert!(matches!(s.op, StageOp::Gemm { .. }), "{}", s.name);
                    assert!(s.gemm_idx.is_some(), "{}", s.name);
                }
            }
            // The final stage never joins a parallel level (it owns the
            // report's output).
            let last = p.schedule.last().unwrap();
            assert!(!last.parallel);
        }

        #[test]
        fn parallel_branches_are_byte_identical_to_sequential() {
            let net = zoo::squeezenet_net(2, 32, 32, 3);
            let schemes = vec![Scheme::ThreadLevelOneSided; net.gemm_count()];
            let seq = ProtectedPipeline::compile(&net, &schemes).with_branch_workers(1);
            let par = ProtectedPipeline::compile(&net, &schemes).with_branch_workers(2);
            assert!(par.parallel_level_count() >= 2);
            let input = Matrix::random(2, 3 * 32 * 32, 77);
            let a = seq.infer(&input, None);
            let b = par.infer(&input, None);
            assert!(!a.fault_detected() && !b.fault_detected());
            assert_eq!(bits(&a.output), bits(&b.output));
        }

        #[test]
        fn faults_inside_a_parallel_level_report_identically() {
            let net = zoo::squeezenet_net(2, 32, 32, 3);
            let schemes = vec![Scheme::ThreadLevelOneSided; net.gemm_count()];
            let seq = ProtectedPipeline::compile(&net, &schemes).with_branch_workers(1);
            let par = ProtectedPipeline::compile(&net, &schemes).with_branch_workers(2);
            // Pick a GEMM layer that actually sits in a parallel level.
            let target = par
                .schedule
                .iter()
                .filter(|g| g.parallel)
                .flat_map(|g| par.stages[g.start..g.end].iter())
                .map(|s| s.gemm_idx.unwrap())
                .next_back()
                .expect("a parallel level exists");
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
            let a = seq.infer(&input, Some(fault));
            let b = par.infer(&input, Some(fault));
            assert!(a.fault_detected() && b.fault_detected());
            assert_eq!(a.detections.len(), b.detections.len());
            assert_eq!(a.detections[0].layer, target);
            assert_eq!(b.detections[0].layer, target);
            assert_eq!(a.detections[0].name, b.detections[0].name);
            assert_eq!(bits(&a.output), bits(&b.output));
        }

        #[test]
        fn recovery_inside_a_parallel_level_repairs_in_place() {
            let net = zoo::squeezenet_net(2, 32, 32, 3);
            let schemes = vec![Scheme::ThreadLevelOneSided; net.gemm_count()];
            let par = ProtectedPipeline::compile(&net, &schemes)
                .with_branch_workers(2)
                .with_recovery(true);
            let target = par
                .schedule
                .iter()
                .filter(|g| g.parallel)
                .flat_map(|g| par.stages[g.start..g.end].iter())
                .map(|s| s.gemm_idx.unwrap())
                .next()
                .expect("a parallel level exists");
            let input = Matrix::random(2, 3 * 32 * 32, 79);
            let clean = par.infer(&input, None);
            let fault = PipelineFault {
                layer: target,
                fault: FaultPlan {
                    row: 0,
                    col: 1,
                    after_step: u64::MAX,
                    kind: FaultKind::AddValue(300.0),
                },
            };
            let repaired = par.infer(&input, Some(fault));
            assert!(repaired.fault_corrected(), "{:?}", repaired.detections);
            assert!(!repaired.fault_detected());
            assert_eq!(repaired.corrections[0].layer, target);
            assert_eq!(bits(&clean.output), bits(&repaired.output));
        }

        #[test]
        fn chains_never_form_parallel_levels() {
            let p = ProtectedPipeline::uniform(&zoo::dlrm_mlp_bottom(16), Scheme::GlobalAbft, 1);
            assert_eq!(p.parallel_level_count(), 0);
        }
    }
}
