//! # aiga — Arithmetic-Intensity-Guided ABFT
//!
//! A from-scratch Rust reproduction of *"Arithmetic-Intensity-Guided
//! Fault Tolerance for Neural Network Inference on GPUs"* (Kosaian &
//! Rashmi, SC '21). The paper's CUDA/CUTLASS system is rebuilt on two
//! substrates that do not import each other: a functional GEMM engine
//! that runs on the host (a register-tiled microkernel whose tiles
//! carry the thread-level checksums; a GEMM is a function of its
//! operands, blocked by host constants) and a calibrated analytical
//! timing model of the GPU, which selects schemes and reproduces the
//! paper's figures but is on no execution path.
//!
//! The public API is organized in three layers (see `ARCHITECTURE.md`):
//!
//! 1. **Schemes** — every redundancy scheme (global ABFT,
//!    one-/two-sided thread-level ABFT, the two replication variants,
//!    the multi-checksum extension at any round count) is a
//!    [`core::Scheme`] id that prices itself
//!    ([`core::Scheme::apply_cost`]) and binds itself to a layer's
//!    weights ([`core::Scheme::bind`] → [`core::BoundGemm`], one
//!    concrete value with one run entry). A protected GEMM needs the id
//!    and the weights, nothing else.
//! 2. **Planning** — [`core::Planner`] is the builder-style front-end
//!    for intensity-guided ABFT (§5.3): per-layer selection among the
//!    candidate schemes by profiled execution time (or the §7.2
//!    analytical rule).
//! 3. **Serving** — [`core::Session`] dispatches requests to batch
//!    buckets, caches plans and bound pipelines per
//!    `(model, device, bucket)`, and aggregates detection statistics —
//!    the §7.3 multi-input-size deployment as a first-class API.
//!    [`core::Server`] is the concurrent front door above it: worker
//!    threads, a bounded admission queue, and a dynamic batcher that
//!    coalesces concurrent clients' requests into those same buckets.
//!
//! ## Quickstart
//!
//! Protect a single matrix multiplication and watch an injected soft
//! error get caught:
//!
//! ```
//! use aiga::prelude::*;
//!
//! let shape = GemmShape::new(64, 64, 64);
//! let gemm = ProtectedGemm::random(shape, Scheme::ThreadLevelOneSided, 7);
//! assert!(gemm.run().verdict.is_clean());
//!
//! let fault = FaultPlan { row: 3, col: 5, after_step: 10, kind: FaultKind::AddValue(50.0) };
//! assert!(gemm.with_fault(fault).run().verdict.is_detected());
//! ```
//!
//! Plan a model and serve requests through a session:
//!
//! ```
//! use aiga::prelude::*;
//!
//! // Plan once per device: per-layer selection between global and
//! // thread-level ABFT by modeled execution time.
//! let planner = Planner::new(DeviceSpec::t4());
//! let plan = planner.plan(&zoo::dlrm_mlp_bottom(32));
//! assert!(plan.intensity_guided_s() <= plan.fixed_scheme_s(Scheme::GlobalAbft));
//!
//! // Serve many requests: batch-bucket dispatch + plan caching. An
//! // analytic MLP family is lowered once, at the largest bucket, to an
//! // executable `Network` (`Network::from_mlp`), the one form sessions
//! // compile; every bucket's plan binds over its packed weights.
//! let session = Session::builder(planner, "dlrm-bottom", zoo::dlrm_mlp_bottom)
//!     .buckets([8, 32])
//!     .build();
//! let reply = session.serve(&Matrix::random(5, 13, 42)).unwrap();
//! assert_eq!(reply.bucket, 8);
//! assert!(!reply.report.fault_detected());
//! ```
//!
//! Compile an *executable* zoo network — real FP16 weights, every
//! convolution executed as an implicit GEMM (the engine's panel packer
//! reads activations through an `Im2colView`/NCHW view of the producing
//! stage's buffer, so the lowered matrix never materializes) and
//! pooling/ReLU/residual epilogues between stages, one stage after
//! another (a GEMM large enough to pay for it splits its own rows
//! across cores; nothing fans out between stages) — all served through
//! the same session front-end (`Model → ModelPlan → CompiledModel`):
//!
//! ```
//! use aiga::prelude::*;
//!
//! // A trimmed executable ResNet bottleneck block from the zoo: the
//! // planner selects per-layer schemes on its REAL conv shapes.
//! let session = Session::builder_network(
//!     Planner::new(DeviceSpec::t4()),
//!     "resnet-block",
//!     |b| zoo::resnet_block_net(b, 8, 8, 7),
//! )
//! .buckets([2])
//! .build();
//!
//! // Requests are flattened NCHW rows (16 channels × 8 × 8 here).
//! let reply = session.serve(&Matrix::random(1, 16 * 8 * 8, 42)).unwrap();
//! assert_eq!(reply.report.output.len(), 10); // 10-way classifier head
//! assert!(!reply.report.fault_detected());
//! assert_eq!(reply.schemes.len(), 5); // conv1/conv2/conv3/downsample/fc
//! ```
//!
//! Stand a concurrent `Server` in front of the session for multi-client
//! traffic — bounded admission, worker threads, and a dynamic batcher
//! that coalesces concurrent requests into one pass (byte-identically
//! to solo serving). A batch bucket is a plan key and a row cap: it
//! picks the compiled instance a pass runs through, and the pass
//! executes exactly the rows it is handed:
//!
//! ```
//! use aiga::prelude::*;
//!
//! let session = Session::builder(Planner::new(DeviceSpec::t4()), "dlrm", zoo::dlrm_mlp_bottom)
//!     .buckets([8, 32])
//!     .build();
//! let server = Server::builder(session).workers(2).queue_capacity(64).build();
//!
//! let client = server.client(); // Clone one per submitting thread.
//! let pending = client.submit(&Matrix::random(5, 13, 42)).unwrap();
//! let reply = pending.wait().unwrap();
//! assert_eq!(reply.rows, 5);
//!
//! let stats = server.shutdown(); // drain, join, final stats
//! assert_eq!(stats.completed, 1);
//! ```
//!
//! Serve under *overload* without letting latency run away: requests
//! carry an optional SLO (deadline + priority), the queue is
//! age-tracked, and past configurable thresholds the server first
//! *degrades* pending work to unprotected passes (no checksum work,
//! byte-identical output), then *sheds*
//! with an explicit `ServeError::Overloaded`. A supervisor respawns
//! any worker that panics, so one bad pass never takes the server
//! down:
//!
//! ```
//! use aiga::prelude::*;
//! use std::time::Duration;
//!
//! let session = Session::builder(Planner::new(DeviceSpec::t4()), "dlrm", zoo::dlrm_mlp_bottom)
//!     .buckets([8, 32])
//!     .build();
//! let server = Server::builder(session)
//!     .workers(2)                                   // one session shard per worker
//!     .degrade_after(Duration::from_millis(50))     // then: unprotected passes
//!     .shed_after(Duration::from_millis(200))       // then: explicit Overloaded
//!     .retry_policy(3, Duration::from_micros(200))  // bounded, jittered backoff
//!     .build();
//!
//! let client = server.client();
//! let slo = Slo { deadline: Some(Duration::from_millis(100)), priority: Priority::High };
//! let reply = client.submit_with_slo(&Matrix::random(5, 13, 42), slo).unwrap();
//! match reply.wait() {
//!     Ok(report) => assert_eq!(report.rows, 5),
//!     Err(ServeError::Overloaded { queue_age }) => {
//!         // Shed explicitly — resolve promptly, degrade gracefully.
//!         assert!(queue_age >= Duration::from_millis(100));
//!     }
//!     Err(e) => panic!("unexpected: {e}"),
//! }
//!
//! let stats = server.shutdown();
//! // Overload response is observable: degraded/shed/cancelled passes
//! // and supervisor worker restarts are all counted.
//! assert_eq!(stats.degraded + stats.shed + stats.completed, 1);
//! assert_eq!(stats.worker_restarts, 0);
//! ```
//!
//! Serve a *quantized* model: convert any zoo network to a storage
//! dtype (bf16 here; fp8-e4m3 and int8 work the same way) and the
//! whole stack follows — the planner prices the narrower format's
//! higher arithmetic intensity (which can flip layers between
//! thread-level and global ABFT), the executor keeps each layer's
//! weights resident as the format's codes and widens them to f32 in
//! the microkernel's load, so the same protected kernels stream the
//! narrower format's bytes, and serving stays byte-deterministic:
//!
//! ```
//! use aiga::prelude::*;
//!
//! let session = Session::builder_network(
//!     Planner::new(DeviceSpec::t4()),
//!     "resnet-block-bf16",
//!     |b| zoo::resnet_block_net(b, 8, 8, 7).with_dtype(Dtype::Bf16),
//! )
//! .buckets([2])
//! .build();
//!
//! // Requests must arrive in the pipeline's storage dtype.
//! let input = Matrix::random_dtype(1, 16 * 8 * 8, 42, Dtype::Bf16);
//! let a = session.serve(&input).unwrap();
//! let b = session.serve(&input).unwrap();
//! assert!(!a.report.fault_detected());
//! let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
//! assert_eq!(bits(&a.report.output), bits(&b.report.output)); // byte-deterministic
//! ```
//!
//! Go from detection to *correction*: a recovery session localizes a
//! flagged fault (column / row / register tile, per scheme), recomputes
//! only the implicated slice mid-pass, and re-verifies; a server can
//! transparently retry any verdict that survives; and an adaptive
//! controller escalates or relaxes per-layer schemes online as the
//! observed fault rate moves:
//!
//! ```
//! use aiga::prelude::*;
//!
//! let session = Session::builder(Planner::new(DeviceSpec::t4()), "dlrm", zoo::dlrm_mlp_bottom)
//!     .buckets([8])
//!     .recovery(true)                   // localize + recompute in place
//!     .adaptive(AdaptConfig::default()) // escalate/relax schemes online
//!     .build();
//! let server = Server::builder(session).retry_on_verdict(true).build();
//! let reply = server.client().submit(&Matrix::random(4, 13, 42)).unwrap().wait().unwrap();
//! assert!(!reply.report.fault_detected());
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.retries, 0); // clean traffic: nothing to retry
//! assert_eq!(stats.session.corrections, 0);
//! ```
//!
//! The facade re-exports the workspace sub-crates: [`dtype`] (number
//! formats: the binary16 value type `F16` and the f16/bf16/fp8/int8
//! storage codecs behind one `Dtype` tag), [`gpu`] (the analytic GPU
//! model — devices, roofline, tiling, timing — and the host engine),
//! [`nn`] (layer lowering and the model zoo), [`core`] (the paper's contribution), [`faults`]
//! (injection campaigns), and [`util`] (RNG/JSON/parallel helpers).

pub use aiga_core as core;
pub use aiga_dtype as dtype;
pub use aiga_faults as faults;
pub use aiga_gpu as gpu;
pub use aiga_nn as nn;
pub use aiga_util as util;

/// Where `F16` lived while it had a crate of its own. Kept for the one
/// thing that needs the path, `benchmark/src/serve.rs:14`, which no PR
/// other than a `benchmark` one may edit; everything else imports
/// [`dtype::F16`].
#[doc(hidden)]
pub mod fp16 {
    pub use aiga_dtype::F16;
}

/// One-stop imports for the common API surface.
///
/// ```
/// use aiga::prelude::*;
/// ```
pub mod prelude {
    pub use aiga_core::adapt::{AdaptConfig, AdaptiveController, Adjustment, Observation};
    pub use aiga_core::compiled::CompiledModel;
    pub use aiga_core::cost::{evaluate_layer, SchemeTiming};
    pub use aiga_core::kernel::{BoundGemm, FaultSite, RunReport, Verdict};
    pub use aiga_core::pipeline::{
        InferenceReport, LayerCorrection, LayerDetection, PipelineFault, ProtectedPipeline,
        StageTimes,
    };
    pub use aiga_core::planner::Planner;
    pub use aiga_core::protected::ProtectedGemm;
    pub use aiga_core::schemes::Scheme;
    pub use aiga_core::selector::{LayerPlan, ModelPlan, SelectionMode};
    pub use aiga_core::serve::{
        Client, Pending, Priority, ServeError, Server, ServerBuilder, ServerStats, Slo,
    };
    pub use aiga_core::session::{PlanCache, ServeReport, Session, SessionError, SessionStats};
    pub use aiga_faults::{Campaign, CampaignStats, FaultModel, Outcome, Trial};
    pub use aiga_gpu::engine::{
        Dest, Dtype, FaultKind, FaultPlan, Matrix, PackedWeights, TileScheme, Workspace,
    };
    pub use aiga_gpu::timing::Calibration;
    pub use aiga_gpu::{Bound, DeviceSpec, GemmShape, Roofline, TilingConfig};
    pub use aiga_nn::{
        im2col, im2col_into, zoo, ConvParams, LinearLayer, Model, Network, NetworkBuilder, Tensor,
    };
}
