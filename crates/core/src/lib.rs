//! # aiga-core — arithmetic-intensity-guided ABFT
//!
//! The paper's contribution, rebuilt on the `aiga-gpu` substrate and
//! organized around three layers:
//!
//! **Schemes** — a [`Scheme`] id is all a caller holds: it prices
//! itself ([`Scheme::apply_cost`]: Table 1 per-thread work or the §2.5
//! epilogue + reduce-and-compare kernel, feeding the timing model) and
//! binds itself to a layer's weights ([`Scheme::bind`]), returning the
//! [`BoundGemm`] that runs the protected GEMM and reaches a verdict.
//! Both are closed matches over a closed enum — the selector, pipeline,
//! and session never enumerate schemes, and every id that parses runs.
//! Nothing is a trait object: a bound layer is one concrete value with
//! one run entry ([`BoundGemm::run_into`]) and one repair entry
//! ([`BoundGemm::correct_into`]).
//!
//! - [`schemes`]: the scheme *mechanisms* — [`schemes::GlobalAbft`]
//!   (kernel-level baseline of Hari et al., §2.5), the §2.4
//!   [`schemes::MultiChecksumAbft`] extension, and the four
//!   thread-level schemes (one-/two-sided ABFT §5.1–5.2, the two
//!   replication variants §4) in the form the engine executes them:
//!   checksum lanes in the microkernel's register tile plus a tile
//!   epilogue compare ([`schemes::Scheme::tile_scheme`]).
//! - [`tolerance`]: floating-point-aware checksum comparison with a
//!   running analytical error bound, so fault detection never false-
//!   positives on rounding noise.
//! - [`cost`]: the evaluation loop that turns [`Scheme::apply_cost`]
//!   plus the `aiga-gpu` timing model into per-scheme
//!   [`cost::SchemeTiming`]s.
//!
//! **Planning** — [`Planner`] is the builder-style front-end for
//! intensity-guided ABFT (§5.3): configure device, calibration,
//! candidates, and mode; call [`Planner::plan`] for a [`ModelPlan`]
//! (one per input size — the §7.3 dispatch among them is
//! [`Session`]'s pass table).
//!
//! **Compilation** — [`compiled::CompiledModel`] is the typed path
//! `Model → ModelPlan → CompiledModel`: an executable `aiga_nn::Network`
//! (real FP16 weights, conv + pooling/ReLU/concat/residual nodes) is
//! planned on its real zoo shapes and bound layer by layer into a
//! [`pipeline::ProtectedPipeline`] stage graph, where a conv stage's
//! engine gathers its im2col lowering straight from the producer's
//! NCHW slot. That pipeline is also how a single convolution is
//! protected: a one-conv `Network` compiled the same way.
//!
//! **Serving** — [`Session`] turns a planner plus a family of
//! executable networks ([`Session::builder_network`]; analytic MLPs
//! lower through `Network::from_mlp`) into a request-serving
//! front-end: per-request batch-bucket dispatch, one lazy compilation
//! whose weights every bucket's cached plan rebinds, and aggregated
//! detection statistics. [`protected::ProtectedGemm`] and
//! [`pipeline::ProtectedPipeline`] are the single-GEMM and single-model
//! execution layers underneath. `Session` is the single-caller core;
//! [`serve::Server`] is the concurrent front door on top of it — a
//! bounded admission queue, worker threads, and a dynamic batcher that
//! coalesces concurrent requests into the planner's batch buckets
//! (byte-identically to solo serving) behind [`serve::Client`] /
//! [`serve::Pending`] request handles.

pub mod adapt;
pub mod compiled;
pub mod cost;
pub mod kernel;
pub mod pipeline;
pub mod plan_io;
pub mod planner;
pub mod protected;
pub mod schemes;
pub mod selector;
pub mod serve;
pub mod session;
pub mod tolerance;

pub use adapt::{AdaptConfig, AdaptiveController, Adjustment, Observation};
pub use compiled::CompiledModel;
pub use kernel::{BoundGemm, FaultSite, RunReport, Verdict};
pub use pipeline::{
    InferenceReport, LayerCorrection, PipelineFault, ProtectedPipeline, StageTimes,
};
pub use planner::Planner;
pub use protected::ProtectedGemm;
pub use schemes::Scheme;
pub use selector::{LayerPlan, ModelPlan, SelectionMode};
pub use serve::{Client, Pending, Priority, ServeError, Server, ServerBuilder, ServerStats, Slo};
pub use session::{PlanCache, ServeReport, Session, SessionBuilder, SessionError, SessionStats};
