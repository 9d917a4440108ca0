//! The serving front-end: §7.3's multi-input-size deployment as a
//! first-class API.
//!
//! A [`Session`] wraps a [`Planner`] and a model *family* — a
//! constructor from input-size key to an executable [`Network`]
//! (`|b| zoo::squeezenet_net(b, 64, 64, 7)`: real FP16 weights, conv
//! layers lowered to protected GEMMs; [`Session::builder`] lowers an
//! analytic MLP [`Model`] family through [`Network::from_mlp`]).
//! Requests arrive as activation matrices of any batch size (flattened
//! NCHW rows); the session
//!
//! 1. dispatches the request to the smallest pre-declared batch bucket
//!    that fits it — a bucket is a *plan key and a row cap*: it names
//!    the plan (priced at that batch) the request runs under, and the
//!    request runs as its own rows, never padded up. Requests *larger*
//!    than the largest bucket are split into largest-bucket chunks,
//!    served chunk by chunk, and the outputs concatenated;
//! 2. on the first request, whatever its bucket, calls the family once,
//!    at the largest bucket, on that request's thread: plans every
//!    bucket from the network's shapes at the bucket's batch
//!    ([`Network::to_model_at`]), compiles the largest bucket's
//!    pipeline — each weight layer packed once — and drops the network.
//!    Every pass the session runs is a row of one table over that
//!    pipeline's packed weights ([`ProtectedPipeline::rebind`]): one row
//!    per bucket (its [`ModelPlan`]'s schemes, or its adaptive
//!    controller's after a switch) and one degraded row, each bound the
//!    first time a request or an inspection touches it — one resident
//!    copy of the weights, whatever the buckets, degrade or adaptation;
//! 3. checks a warm [`Workspace`] out of the session pool, runs
//!    protected inference inside it over the caller's matrix where it
//!    lies, and returns the per-request [`InferenceReport`].
//!
//! `Session` is deliberately the *single-caller* core of the serving
//! stack: one call, one protected pass, caller-threaded. Multi-client
//! traffic goes through [`crate::serve::Server`], which owns worker
//! threads and a dynamic batcher that coalesces concurrent requests
//! into these same buckets before calling [`Session::serve`].
//!
//! # Hot-path allocation discipline
//!
//! After each bucket's first request, `serve` is allocation-free on the
//! engine hot path: its pass is one read of the table row indexed by
//! the bucket (no `String` keys, no map rehashing), statistics are
//! atomic counters (never contending with anything), and every scratch
//! buffer lives in a pooled [`Workspace`]. The only steady-state
//! allocation is the returned report's output vector —
//! `tests/alloc_steadystate.rs` pins this with a counting allocator.

use crate::adapt::{AdaptConfig, AdaptiveController};
use crate::compiled::CompiledModel;
use crate::pipeline::{InferenceReport, PipelineFault, ProtectedPipeline};
use crate::planner::Planner;
use crate::schemes::Scheme;
use crate::selector::ModelPlan;
use aiga_gpu::engine::{Dtype, Matrix, Workspace};
use aiga_nn::{Model, Network};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Why a request could not be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The request feature width does not match the model family.
    FeatureMismatch {
        /// Observed request columns.
        observed: usize,
        /// Expected input features.
        expected: usize,
    },
    /// The request's storage dtype does not match the model family's.
    DtypeMismatch {
        /// Dtype tag of the request matrix.
        observed: Dtype,
        /// Storage dtype the family executes in.
        expected: Dtype,
    },
    /// The request matrix does not hold `rows × cols` codes (its fields
    /// are public, so a caller can build one that does not).
    MalformedInput {
        /// Declared rows.
        rows: usize,
        /// Declared columns.
        cols: usize,
        /// Codes actually present.
        len: usize,
    },
}

impl SessionError {
    /// Rejects a buffer that disagrees with its declared shape, before
    /// anything copies, stacks or reads it by that shape.
    pub(crate) fn check_shape(input: &Matrix) -> Result<(), SessionError> {
        let (rows, cols, len) = (input.rows, input.cols, input.data.len());
        if rows.checked_mul(cols) == Some(len) {
            return Ok(());
        }
        Err(SessionError::MalformedInput { rows, cols, len })
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::FeatureMismatch { observed, expected } => write!(
                f,
                "request has {observed} features but the model family expects {expected}"
            ),
            SessionError::DtypeMismatch { observed, expected } => write!(
                f,
                "request is {observed} but the model family executes in {expected}"
            ),
            SessionError::MalformedInput { rows, cols, len } => {
                write!(f, "request declares {rows}x{cols} but holds {len} codes")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Declares a statistics snapshot struct and its lock-free mirror from
/// one field list, so a counter is declared once. `counters` are `u64`
/// fields each backed by a relaxed `AtomicU64` in `$Atomic` (bookkeeping
/// never contends with anything), loaded by its `snapshot()`; `gauges`
/// are `u64` fields the snapshot's caller fills in; `rest` are fields of
/// other types. `$Stats::u64_fields()` names every counter and gauge,
/// in declaration order, for `to_json`.
macro_rules! stats_struct {
    (
        $(#[$meta:meta])*
        pub struct $Stats:ident mirrored by $Atomic:ident {
            counters { $($(#[$cdoc:meta])* $counter:ident,)* }
            gauges { $($(#[$gdoc:meta])* $gauge:ident,)* }
            rest { $($(#[$rdoc:meta])* $rest:ident: $rty:ty,)* }
        }
    ) => {
        $(#[$meta])*
        pub struct $Stats {
            $($(#[$cdoc])* pub $counter: u64,)*
            $($(#[$gdoc])* pub $gauge: u64,)*
            $($(#[$rdoc])* pub $rest: $rty,)*
        }

        #[derive(Default)]
        pub(crate) struct $Atomic {
            $(pub $counter: std::sync::atomic::AtomicU64,)*
        }

        impl $Atomic {
            /// The counters as of now; gauges and the rest stay default
            /// for the caller to fill.
            #[allow(clippy::needless_update)]
            pub fn snapshot(&self) -> $Stats {
                $Stats {
                    $($counter: self.$counter.load(std::sync::atomic::Ordering::Relaxed),)*
                    ..Default::default()
                }
            }
        }

        impl $Stats {
            fn u64_fields(&self) -> Vec<(&'static str, aiga_util::Json)> {
                vec![
                    $((stringify!($counter), aiga_util::Json::num(self.$counter as f64)),)*
                    $((stringify!($gauge), aiga_util::Json::num(self.$gauge as f64)),)*
                ]
            }
        }
    };
}
pub(crate) use stats_struct;

stats_struct! {
    /// Aggregate statistics over a session's lifetime.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct SessionStats mirrored by AtomicStats {
        counters {
            /// Requests served successfully.
            requests,
            /// Requests answered from an already-bound pass.
            cache_hits,
            /// Requests that bound their bucket's row of the pass table
            /// (cache misses; the first also builds the resident pipeline).
            plan_builds,
            /// Requests on which at least one fault was detected.
            faulty_requests,
            /// Total detection events across all requests.
            detections,
            /// Requests larger than the largest bucket, served by splitting.
            split_requests,
            /// In-place corrections applied across all requests: a localized
            /// verdict whose implicated slice was recomputed mid-pass
            /// (recovery sessions only).
            corrections,
            /// The subset of corrections resolved by replication majority vote
            /// rather than a checksum localizer.
            vote_resolutions,
            /// Scheme switches (escalations + relaxations) committed by the
            /// adaptive controller (adaptive sessions only).
            adaptations,
            /// Requests served under the *degraded* scheme assignment — every
            /// layer `Unprotected` (an overloaded [`crate::serve::Server`]
            /// trades protection for execution time; output bytes are
            /// unaffected).
            degraded_requests,
            /// Nanoseconds the served passes spent in protected GEMM stages
            /// (conv and fc, write-back included) — with the three below,
            /// where the time between a request and its reply went
            /// ([`crate::pipeline::StageTimes`], summed over every pass).
            stage_gemm_ns,
            /// Nanoseconds in spatial and global pooling stages.
            stage_pool_ns,
            /// Nanoseconds in embedding gathers and pairwise interactions.
            stage_gather_ns,
            /// Nanoseconds in concat, slice and residual-add stages.
            stage_other_ns,
        }
        gauges {}
        rest {}
    }
}

impl SessionStats {
    /// Every counter by name, as one JSON object.
    pub fn to_json(&self) -> aiga_util::Json {
        aiga_util::Json::obj(self.u64_fields())
    }
}

/// The outcome of serving one request.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The bucket the request was dispatched to (for split oversized
    /// requests: the largest bucket, which every chunk — tail included —
    /// was served through).
    pub bucket: u64,
    /// Rows of the request (the report's output holds exactly these).
    pub rows: usize,
    /// Per-layer schemes that protected this request. Shared with the
    /// session's pass table — cloning a report never reallocates it.
    pub schemes: Arc<[Scheme]>,
    /// The inference result (output is `rows × output_features`).
    pub report: InferenceReport,
}

/// Builder for [`Session`]s.
pub struct SessionBuilder {
    planner: Planner,
    family_name: String,
    /// Instantiates the network served, at the largest bucket.
    family: Box<dyn Fn(u64) -> Network + Send + Sync>,
    buckets: Vec<u64>,
    recovery: bool,
    adaptive: Option<AdaptConfig>,
}

impl SessionBuilder {
    /// Declares the batch buckets plans are built for (sorted and
    /// deduplicated). Defaults to `[1]`.
    pub fn buckets(mut self, buckets: impl IntoIterator<Item = u64>) -> Self {
        self.buckets = buckets.into_iter().collect();
        self.buckets.sort_unstable();
        self.buckets.dedup();
        assert!(!self.buckets.is_empty(), "at least one bucket required");
        assert!(self.buckets[0] >= 1, "buckets must be >= 1");
        self
    }

    /// Enables fault *correction*: schemes that can localize a detected
    /// fault recompute only the implicated slice mid-pass, so the
    /// request completes with clean output and a
    /// [`crate::pipeline::LayerCorrection`] record instead of an
    /// unrepaired detection. Off by default (detect-only).
    pub fn recovery(mut self, on: bool) -> Self {
        self.recovery = on;
        self
    }

    /// Enables the online adaptive protection controller: per bucket
    /// and per layer, the observed fault rate over a sliding window
    /// escalates or relaxes the scheme around the static plan (see
    /// [`crate::adapt`]).
    pub fn adaptive(mut self, config: AdaptConfig) -> Self {
        self.adaptive = Some(config);
        self
    }

    /// Finalizes the session.
    pub fn build(self) -> Session {
        Session {
            cache: Arc::new(PlanCache {
                planner: self.planner,
                family_name: self.family_name,
                family: self.family,
                buckets: self.buckets,
                recovery: self.recovery,
                adapt: self.adaptive,
                resident: OnceLock::new(),
                stats: AtomicStats::default(),
            }),
            pool: Mutex::new(Vec::new()),
        }
    }
}

/// The shared, immutable planning state behind one or more [`Session`]
/// shards: the planner, the model family, the declared buckets, the
/// one compiled network with its pass table, and the aggregate
/// statistics. The family is called and the weights packed exactly
/// once, and each row bound once, no matter how many shards serve from
/// the cache.
///
/// `PlanCache` is deliberately opaque — it is reached through
/// [`Session::shard`], which hands each serving thread its own
/// workspace pool over the same `Arc<PlanCache>`.
pub struct PlanCache {
    planner: Planner,
    family_name: String,
    family: Box<dyn Fn(u64) -> Network + Send + Sync>,
    buckets: Vec<u64>,
    recovery: bool,
    /// Adaptive-control settings, present when the builder requested it.
    adapt: Option<AdaptConfig>,
    /// The compiled network, built by the first request.
    resident: OnceLock<Resident>,
    stats: AtomicStats,
}

/// What the first request builds, once per session: every bucket's plan,
/// the largest bucket's pipeline, whose packed weights and tables every
/// pass shares, and the table of those passes.
struct Resident {
    /// One plan per declared bucket, aligned with `PlanCache::buckets`.
    plans: Vec<Arc<ModelPlan>>,
    pipeline: ProtectedPipeline,
    /// The pass table: row `i` is what bucket `i` runs now — its plan's
    /// schemes, or its controller's after a switch — and the last row
    /// is the degraded pass, every layer `Unprotected`. Each row is
    /// bound by [`PlanCache::pass`] on first touch.
    passes: Vec<RwLock<Option<Arc<ProtectedPipeline>>>>,
    /// One adaptive controller per bucket; empty unless adaptive.
    controllers: Vec<Mutex<AdaptiveController>>,
}

/// A long-lived serving session: compile once, plan once per bucket,
/// serve many requests, each from a warm pooled workspace.
///
/// A session is a *shard view* over an [`Arc<PlanCache>`]: the compiled
/// plans, adaptive state, and statistics are shared (and built once),
/// while the workspace pool is private to the shard. [`Session::shard`]
/// creates another view — [`crate::serve::Server`] gives each worker
/// thread its own shard so steady-state serving never contends on one
/// pool mutex.
pub struct Session {
    cache: Arc<PlanCache>,
    /// Warm workspaces checked out per request. Capacity ratchets to
    /// the peak concurrency of *this shard*; a pop/push pair on the
    /// steady state does not allocate.
    pool: Mutex<Vec<Workspace>>,
}

impl PlanCache {
    fn bucket_index(&self, bucket: u64) -> usize {
        self.buckets
            .iter()
            .position(|&b| b == bucket)
            .expect("bucket not declared for this session")
    }

    /// The session's compiled network: the family called once, at the
    /// largest bucket, every bucket planned from its shapes at that
    /// bucket's batch, the largest bucket's pipeline compiled, the
    /// network dropped. Built by the first caller; the rest wait for it.
    fn resident(&self) -> &Resident {
        self.resident.get_or_init(|| {
            let net = (self.family)(*self.buckets.last().expect("at least one bucket"));
            // Plan at the network's storage dtype: a bf16/fp8 network's
            // layers sit at different arithmetic intensities than fp16's.
            let planner = self.planner.clone().dtype(net.dtype);
            let plans: Vec<Arc<ModelPlan>> = self
                .buckets
                .iter()
                .map(|&b| Arc::new(planner.plan(&net.to_model_at(b as usize))))
                .collect();
            let schemes = plans.last().expect("one plan per bucket").chosen_schemes();
            let pipeline = ProtectedPipeline::compile(&net, &schemes).with_recovery(self.recovery);
            let controllers = (plans.iter())
                .filter_map(|plan| {
                    Some(AdaptiveController::new(self.adapt?, plan.chosen_schemes()))
                })
                .map(Mutex::new)
                .collect();
            let passes = (0..=plans.len()).map(|_| RwLock::new(None)).collect();
            Resident {
                plans,
                pipeline,
                passes,
                controllers,
            }
        })
    }

    /// `schemes` over the resident pipeline's panels: the one place a
    /// session builds a pass.
    fn bind(&self, schemes: &[Scheme]) -> Arc<ProtectedPipeline> {
        Arc::new(self.resident().pipeline.rebind(schemes))
    }

    /// Row `row` of the pass table, and whether this call bound it: on
    /// first touch, a bucket's row binds its plan's schemes and the
    /// degraded row (`row == buckets.len()`) every layer `Unprotected`.
    /// The steady-state path is one read lock and an `Arc` clone.
    fn pass(&self, row: usize) -> (Arc<ProtectedPipeline>, bool) {
        let resident = self.resident();
        if let Some(pass) = &*resident.passes[row].read().unwrap() {
            return (pass.clone(), false);
        }
        let mut slot = resident.passes[row].write().unwrap();
        let built = slot.is_none();
        let pass = slot.get_or_insert_with(|| match resident.plans.get(row) {
            Some(plan) => self.bind(&plan.chosen_schemes()),
            None => self.bind(&vec![Scheme::Unprotected; resident.pipeline.depth()]),
        });
        (pass.clone(), built)
    }

    /// Feeds one served report into a bucket's adaptive controller (if
    /// any) and, when it commits scheme switches, rebinds the bucket's
    /// row to the controller's schemes — the plan's again once fully
    /// relaxed. Controller actions, not request cache misses: they count
    /// as `adaptations`, never `plan_builds`.
    fn adapt_observe(&self, index: usize, report: &InferenceReport) {
        let resident = self.resident();
        let Some(ctrl) = resident.controllers.get(index) else {
            return;
        };
        let mut ctrl = ctrl.lock().unwrap();
        let mut switches = 0u64;
        for layer in 0..ctrl.layers() {
            let faulty = report.detections.iter().any(|d| d.layer == layer)
                || report.corrections.iter().any(|c| c.layer == layer);
            if ctrl.observe(layer, faulty).is_some() {
                switches += 1;
            }
        }
        if switches == 0 {
            return;
        }
        *resident.passes[index].write().unwrap() = Some(self.bind(ctrl.current()));
        self.stats
            .adaptations
            .fetch_add(switches, Ordering::Relaxed);
    }

    fn note_request(&self, report: &InferenceReport, built: bool, split: bool, degraded: bool) {
        let s = &self.stats;
        s.requests.fetch_add(1, Ordering::Relaxed);
        if built {
            s.plan_builds.fetch_add(1, Ordering::Relaxed);
        } else {
            s.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        s.detections
            .fetch_add(report.detections.len() as u64, Ordering::Relaxed);
        if report.fault_detected() {
            s.faulty_requests.fetch_add(1, Ordering::Relaxed);
        }
        if !report.corrections.is_empty() {
            s.corrections
                .fetch_add(report.corrections.len() as u64, Ordering::Relaxed);
            let votes = report.corrections.iter().filter(|c| c.vote).count() as u64;
            if votes > 0 {
                s.vote_resolutions.fetch_add(votes, Ordering::Relaxed);
            }
        }
        if split {
            s.split_requests.fetch_add(1, Ordering::Relaxed);
        }
        if degraded {
            s.degraded_requests.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Session {
    /// Starts building a session for an analytic MLP family (e.g.
    /// `zoo::dlrm_mlp_top`): sugar over [`Self::builder_network`] with
    /// the family's [`Model`] lowered by [`Network::from_mlp`] at weight
    /// seed 0 — call `from_mlp` yourself to pick another seed.
    pub fn builder(
        planner: Planner,
        family_name: impl Into<String>,
        family: impl Fn(u64) -> Model + Send + Sync + 'static,
    ) -> SessionBuilder {
        Self::builder_network(planner, family_name, move |b| {
            Network::from_mlp(&family(b), 0)
        })
    }

    /// Starts building a session for a network family. `family_name`
    /// names the session in diagnostics; `family` maps a batch-size key
    /// to the [`aiga_nn::Network`] served at that size (e.g.
    /// `|b| zoo::squeezenet_net(b, 64, 64, 7)`). It is called once, at
    /// the largest bucket, on the first request's thread — nothing runs
    /// at `build()` — so its weights must not depend on the key (the
    /// zoo's do not). Every bucket is planned on that network's real
    /// conv shapes at its own batch, and its real FP16 weights are
    /// packed once per layer. Requests are flattened-NCHW rows (`C·H·W`
    /// features per image).
    pub fn builder_network(
        planner: Planner,
        family_name: impl Into<String>,
        family: impl Fn(u64) -> Network + Send + Sync + 'static,
    ) -> SessionBuilder {
        SessionBuilder {
            planner,
            family_name: family_name.into(),
            family: Box::new(family),
            buckets: vec![1],
            recovery: false,
            adaptive: None,
        }
    }

    /// Another shard over the same [`PlanCache`]: shared compiled
    /// plans, shared adaptive state, shared statistics — but a private
    /// workspace pool, so two shards never contend on a pool mutex.
    /// Plan compilation still happens once across all shards.
    /// [`crate::serve::Server`] hands each worker thread its own shard.
    pub fn shard(&self) -> Session {
        Session {
            cache: Arc::clone(&self.cache),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The model-family name this session serves.
    pub fn family_name(&self) -> &str {
        &self.cache.family_name
    }

    /// The declared batch buckets, ascending.
    pub fn buckets(&self) -> &[u64] {
        &self.cache.buckets
    }

    /// The bucket a request with `rows` rows dispatches to: the smallest
    /// declared bucket that fits it (the instance planned nearest above
    /// the request's size). Requests beyond the largest bucket return
    /// the largest — `serve` splits them into chunks of that size.
    pub fn bucket_for(&self, rows: usize) -> u64 {
        self.cache
            .buckets
            .iter()
            .copied()
            .find(|&b| b >= rows as u64)
            .unwrap_or(*self.cache.buckets.last().unwrap())
    }

    /// The intensity-guided plan serving a given declared bucket (binds
    /// its row if needed). Mostly useful for inspection and tests; does
    /// not touch the request-oriented [`SessionStats`] counters.
    /// Panics if `bucket` was not declared.
    pub fn plan_for_bucket(&self, bucket: u64) -> Arc<ModelPlan> {
        let index = self.cache.bucket_index(bucket);
        self.cache.pass(index);
        self.cache.resident().plans[index].clone()
    }

    /// The compiled model serving a given declared bucket: its plan and
    /// the plan's pass (binding its row if needed) — the planned pass
    /// even while an adaptive switch has the row escalated. Panics if
    /// `bucket` was not declared.
    pub fn compiled_for_bucket(&self, bucket: u64) -> Arc<CompiledModel> {
        let index = self.cache.bucket_index(bucket);
        let (pass, _) = self.cache.pass(index);
        let plan = self.cache.resident().plans[index].clone();
        let schemes = plan.chosen_schemes();
        let pipeline = if pass.schemes()[..] == schemes[..] {
            pass
        } else {
            self.cache.bind(&schemes)
        };
        Arc::new(CompiledModel { plan, pipeline })
    }

    /// Serves one request (any number of rows, columns equal to the
    /// family's input features).
    pub fn serve(&self, input: &Matrix) -> Result<ServeReport, SessionError> {
        self.serve_inner(input, None, false)
    }

    /// Serves one request with an optional injected fault (the §2.3
    /// single-fault model, aimed at one layer of this request). For
    /// oversized requests that get split, the fault is injected into the
    /// first chunk only — the fault plan's coordinates address one
    /// pass's GEMM output, and one aimed past the request's last row
    /// strikes nothing.
    pub fn serve_with_fault(
        &self,
        input: &Matrix,
        fault: Option<PipelineFault>,
    ) -> Result<ServeReport, SessionError> {
        self.serve_inner(input, fault, false)
    }

    /// Serves one request under the *degraded* scheme assignment: every
    /// layer `Unprotected`. Output bytes are identical to
    /// [`Session::serve`] — every scheme computes the same GEMM result,
    /// checksums ride in separate accumulators — detection coverage is
    /// given up in exchange for a pass that executes no checksum FMA
    /// and no kernel-level check. An overloaded
    /// [`crate::serve::Server`] uses this to keep queue age bounded
    /// before it starts shedding.
    pub fn serve_degraded(&self, input: &Matrix) -> Result<ServeReport, SessionError> {
        self.serve_inner(input, None, true)
    }

    /// A snapshot of the aggregate serving statistics (shared across
    /// all shards of the same plan cache).
    pub fn stats(&self) -> SessionStats {
        self.cache.stats.snapshot()
    }

    fn serve_inner(
        &self,
        input: &Matrix,
        fault: Option<PipelineFault>,
        degraded: bool,
    ) -> Result<ServeReport, SessionError> {
        SessionError::check_shape(input)?;
        let cache = &*self.cache;
        let bucket = self.bucket_for(input.rows);
        let index = cache.bucket_index(bucket);
        // One lookup per request: the bucket's row, or the degraded row.
        let (pass, built) = cache.pass(if degraded { cache.buckets.len() } else { index });
        let expected = pass.input_features();
        if input.cols != expected {
            return Err(SessionError::FeatureMismatch {
                observed: input.cols,
                expected,
            });
        }
        let expected = pass.dtype();
        if input.dtype != expected {
            return Err(SessionError::DtypeMismatch {
                observed: input.dtype,
                expected,
            });
        }

        let cap = bucket as usize;
        let split = input.rows > cap;
        let report = if !split {
            self.run(&pass, index, input, fault, degraded)
        } else {
            // Oversized request: split into largest-bucket chunks, every
            // chunk — the tail included — through the same pass, so the
            // whole request runs under ONE scheme plan. The split path
            // allocates for the chunk copies and the concatenation —
            // in-bucket requests remain the allocation-free steady state.
            let mut whole = InferenceReport {
                output: Vec::new(),
                detections: Vec::new(),
                corrections: Vec::new(),
            };
            for start in (0..input.rows).step_by(cap) {
                let chunk = input.row_block(start, cap.min(input.rows - start));
                let chunk_fault = if start == 0 { fault } else { None };
                let r = self.run(&pass, index, &chunk, chunk_fault, degraded);
                // Reserved once the first chunk has run, not before it:
                // reserved ahead of that pass, the buffer left ~1.8 MiB
                // more resident in a server's worker arenas after
                // shutdown (glibc placement), raising peak RSS.
                if start == 0 {
                    whole
                        .output
                        .reserve_exact(input.rows * pass.output_features());
                }
                whole.output.extend_from_slice(&r.output);
                whole.detections.extend(r.detections);
                whole.corrections.extend(r.corrections);
            }
            whole
        };
        // Binding the degraded row is an overload action, not a request
        // cache miss.
        cache.note_request(&report, built && !degraded, split, degraded);
        Ok(ServeReport {
            bucket,
            rows: input.rows,
            schemes: pass.schemes().clone(),
            report,
        })
    }

    /// One pass over rows that fit bucket `index`, in a warm workspace
    /// checked out of the pool (or warmed up) and returned to it.
    fn run(
        &self,
        pass: &ProtectedPipeline,
        index: usize,
        input: &Matrix,
        fault: Option<PipelineFault>,
        degraded: bool,
    ) -> InferenceReport {
        let mut ws = self.pool.lock().unwrap().pop().unwrap_or_default();
        let (report, times) = pass.infer_timed_into(input, fault, &mut ws);
        self.pool.lock().unwrap().push(ws);
        let stats = &self.cache.stats;
        for (total, ns) in [
            (&stats.stage_gemm_ns, times.gemm_ns),
            (&stats.stage_pool_ns, times.pool_ns),
            (&stats.stage_gather_ns, times.gather_ns),
            (&stats.stage_other_ns, times.other_ns),
        ] {
            total.fetch_add(ns, Ordering::Relaxed);
        }

        // Degraded passes run *below* the plan's coverage by design —
        // feeding them to the adaptive controller would make overload
        // look like a fault-rate signal, so only regular passes observe.
        if !degraded {
            self.cache.adapt_observe(index, &report);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiga_gpu::engine::{FaultKind, FaultPlan};
    use aiga_gpu::DeviceSpec;
    use aiga_nn::zoo;

    /// The degraded row of `s`'s pass table (bound once touched).
    fn degraded_row(s: &Session) -> Arc<ProtectedPipeline> {
        let passes = &s.cache.resident.get().unwrap().passes;
        passes.last().unwrap().read().unwrap().clone().unwrap()
    }

    /// `bucket`'s row of `s`'s pass table while an adaptive switch has
    /// it off its plan's schemes.
    fn escalated_row(s: &Session, bucket: u64) -> Option<Arc<ProtectedPipeline>> {
        let index = s.cache.bucket_index(bucket);
        let row = s.cache.resident.get()?.passes[index]
            .read()
            .unwrap()
            .clone()?;
        let planned = s.plan_for_bucket(bucket).chosen_schemes();
        (row.schemes()[..] != planned[..]).then_some(row)
    }

    fn session() -> Session {
        Session::builder(
            Planner::new(DeviceSpec::t4()),
            "dlrm-mlp-bottom",
            zoo::dlrm_mlp_bottom,
        )
        .buckets([8, 32])
        .build()
    }

    #[test]
    fn bf16_squeezenet_serves_byte_deterministically_within_tolerance() {
        use aiga_gpu::engine::Dtype;
        // Quantized serving end to end: a bf16-compiled SqueezeNet
        // behind the session's bucket/pool machinery must be
        // byte-deterministic across repeat requests and track the
        // network's dtype-aware f64 reference.
        let s = Session::builder_network(Planner::new(DeviceSpec::t4()), "squeezenet-bf16", |b| {
            zoo::squeezenet_net(b, 32, 32, 7).with_dtype(Dtype::Bf16)
        })
        .buckets([2])
        .build();
        let input = Matrix::random_dtype(1, 3 * 32 * 32, 42, Dtype::Bf16);
        let r1 = s.serve(&input).unwrap();
        assert_eq!(r1.bucket, 2);
        assert_eq!(r1.rows, 1);
        assert!(!r1.report.fault_detected(), "{:?}", r1.report.detections);
        let r2 = s.serve(&input).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&r1.report.output),
            bits(&r2.report.output),
            "bf16 serving must be byte-deterministic"
        );
        // Zoo families share weights across batch keys, so the batch-1
        // network's reference covers the one-row serve through bucket 2.
        let net = zoo::squeezenet_net(1, 32, 32, 7).with_dtype(Dtype::Bf16);
        let want = net.reference_f64(&input);
        assert_eq!(r1.report.output.len(), want.len());
        for (i, (&got, &w)) in r1.report.output.iter().zip(&want).enumerate() {
            assert!(
                (got as f64 - w).abs() < 5e-2,
                "elem {i}: served {got} vs reference {w}"
            );
        }
    }

    #[test]
    fn requests_dispatch_to_the_smallest_fitting_bucket() {
        let s = session();
        assert_eq!(s.bucket_for(0), 8);
        assert_eq!(s.bucket_for(1), 8);
        assert_eq!(s.bucket_for(8), 8);
        assert_eq!(s.bucket_for(9), 32);
        // Oversized requests dispatch to the largest bucket (and are
        // split across it by `serve`).
        assert_eq!(s.bucket_for(33), 32);
        assert_eq!(s.family_name(), "dlrm-mlp-bottom");
    }

    #[test]
    fn partial_bucket_requests_run_as_their_own_rows() {
        let s = session();
        let small = Matrix::random(3, 13, 100);
        let r = s.serve(&small).unwrap();
        assert_eq!(r.bucket, 8);
        assert_eq!(r.rows, 3);
        assert_eq!(r.report.output.len(), 3 * 64);
        assert!(!r.report.fault_detected());
        // Rows are independent: an exact-batch request computes the
        // identical leading outputs.
        let full = Matrix::random(8, 13, 100);
        let rf = s.serve(&full).unwrap();
        let shared = Matrix::from_fn(3, 13, |r, c| full.get(r, c));
        let rs = s.serve(&shared).unwrap();
        assert_eq!(rs.report.output[..], rf.report.output[..3 * 64]);
    }

    #[test]
    fn oversized_requests_are_split_into_largest_bucket_chunks() {
        let s = session();
        // 70 rows over a largest bucket of 32: chunks of 32 + 32 + 6.
        let big = Matrix::random(70, 13, 500);
        let r = s.serve(&big).unwrap();
        assert_eq!(r.bucket, 32);
        assert_eq!(r.rows, 70);
        assert_eq!(r.report.output.len(), 70 * 64);
        // Split outputs must equal serving each chunk independently
        // (the zoo family shares weights across batch keys, and per-row
        // results are bit-identical across batch sizes and tilings).
        for (start, rows) in [(0usize, 32usize), (32, 32), (64, 6)] {
            let chunk = big.row_block(start, rows);
            let rc = s.serve(&chunk).unwrap();
            assert_eq!(
                rc.report.output[..],
                r.report.output[start * 64..(start + rows) * 64],
                "chunk at {start}"
            );
        }
        let stats = s.stats();
        assert_eq!(stats.split_requests, 1);
        // The split request and the three chunk requests above.
        assert_eq!(stats.requests, 4);
    }

    #[test]
    fn split_requests_detect_faults_in_the_first_chunk() {
        let s = session();
        let fault = PipelineFault {
            layer: 1,
            fault: FaultPlan {
                row: 2,
                col: 50,
                after_step: 4,
                kind: FaultKind::AddValue(50.0),
            },
        };
        let r = s
            .serve_with_fault(&Matrix::random(40, 13, 501), Some(fault))
            .unwrap();
        assert_eq!(r.rows, 40);
        assert!(r.report.fault_detected());
        assert_eq!(s.stats().faulty_requests, 1);
    }

    #[test]
    fn plans_are_cached_per_bucket() {
        let s = session();
        for _ in 0..3 {
            s.serve(&Matrix::random(5, 13, 1)).unwrap();
        }
        s.serve(&Matrix::random(20, 13, 2)).unwrap();
        let stats = s.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.plan_builds, 2, "{stats:?}"); // one per touched bucket
        assert_eq!(stats.cache_hits, 2, "{stats:?}");
        assert_eq!(stats.faulty_requests, 0);
    }

    #[test]
    fn served_schemes_match_the_bucket_plan() {
        let s = session();
        let r = s.serve(&Matrix::random(8, 13, 3)).unwrap();
        let plan = s.plan_for_bucket(8);
        assert_eq!(r.schemes[..], plan.chosen_schemes()[..]);
    }

    #[test]
    fn plan_inspection_does_not_skew_request_stats() {
        let s = session();
        s.plan_for_bucket(8);
        s.plan_for_bucket(8);
        assert_eq!(s.stats(), SessionStats::default());
        // The first real request reuses the inspected entry: it is a
        // cache hit, and requests == plan_builds + cache_hits holds.
        s.serve(&Matrix::random(4, 13, 1)).unwrap();
        let stats = s.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.plan_builds, 0);
    }

    #[test]
    fn faults_are_detected_and_counted() {
        let s = session();
        let fault = PipelineFault {
            layer: 1,
            fault: FaultPlan {
                row: 2,
                col: 50,
                after_step: 4,
                kind: FaultKind::AddValue(50.0),
            },
        };
        let r = s
            .serve_with_fault(&Matrix::random(8, 13, 4), Some(fault))
            .unwrap();
        assert!(r.report.fault_detected());
        let stats = s.stats();
        assert_eq!(stats.faulty_requests, 1);
        assert!(stats.detections >= 1);
    }

    #[test]
    fn feature_mismatch_is_rejected() {
        let s = session();
        let err = s.serve(&Matrix::random(4, 9, 5)).unwrap_err();
        assert_eq!(
            err,
            SessionError::FeatureMismatch {
                observed: 9,
                expected: 13
            }
        );
        // Oversized requests validate features too (first chunk).
        let err = s.serve(&Matrix::random(40, 9, 6)).unwrap_err();
        assert!(matches!(err, SessionError::FeatureMismatch { .. }));
    }

    #[test]
    fn concurrent_requests_share_the_cache_and_pool() {
        let s = std::sync::Arc::new(session());
        std::thread::scope(|scope| {
            for i in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    s.serve(&Matrix::random(6, 13, 10 + i)).unwrap();
                });
            }
        });
        let stats = s.stats();
        assert_eq!(stats.requests, 4);
        // All four hit bucket 8, whose row is bound exactly once.
        assert_eq!(stats.plan_builds, 1);
        assert_eq!(stats.cache_hits, 3);
    }

    #[test]
    fn network_families_compile_and_serve_per_bucket() {
        let s = Session::builder_network(Planner::new(DeviceSpec::t4()), "resnet-block", |b| {
            zoo::resnet_block_net(b, 8, 8, 7)
        })
        .buckets([2, 4])
        .build();
        let features = 16 * 8 * 8;
        let r = s.serve(&Matrix::random(1, features, 50)).unwrap();
        assert_eq!(r.bucket, 2);
        assert_eq!(r.report.output.len(), 10);
        assert!(!r.report.fault_detected());
        // The compiled entry exposes the plan built on real conv shapes.
        let compiled = s.compiled_for_bucket(2);
        assert_eq!(compiled.plan().layers.len(), 5);
        assert_eq!(r.schemes[..], compiled.plan().chosen_schemes()[..]);
        // A second bucket binds its own plan over the same weights.
        let r4 = s.serve(&Matrix::random(3, features, 51)).unwrap();
        assert_eq!(r4.bucket, 4);
        assert_eq!(r4.report.output.len(), 3 * 10);
        assert_eq!(s.stats().plan_builds, 2);
    }

    #[test]
    fn network_feature_mismatch_is_rejected() {
        let s = Session::builder_network(Planner::new(DeviceSpec::t4()), "resnet-block", |b| {
            zoo::resnet_block_net(b, 8, 8, 7)
        })
        .buckets([2])
        .build();
        let err = s.serve(&Matrix::random(1, 77, 52)).unwrap_err();
        assert_eq!(
            err,
            SessionError::FeatureMismatch {
                observed: 77,
                expected: 16 * 8 * 8
            }
        );
    }

    #[test]
    fn dtype_mismatch_is_a_typed_error_not_a_panic() {
        use aiga_gpu::engine::Dtype;
        let s = Session::builder_network(Planner::new(DeviceSpec::t4()), "resnet-bf16", |b| {
            zoo::resnet_block_net(b, 8, 8, 7).with_dtype(Dtype::Bf16)
        })
        .buckets([2])
        .build();
        let err = s.serve(&Matrix::random(1, 16 * 8 * 8, 52)).unwrap_err();
        assert_eq!(
            err,
            SessionError::DtypeMismatch {
                observed: Dtype::F16,
                expected: Dtype::Bf16
            }
        );
        let ok = Matrix::random_dtype(1, 16 * 8 * 8, 52, Dtype::Bf16);
        assert!(s.serve(&ok).is_ok());
    }

    #[test]
    fn malformed_input_is_a_typed_error_not_padding_or_a_panic() {
        let s = session();
        for len in [0, 20, 4 * 13 + 500] {
            let mut bad = Matrix::random(4, 13, 53);
            bad.data.resize(len, bad.data[0]);
            let err = SessionError::MalformedInput {
                rows: 4,
                cols: 13,
                len,
            };
            assert_eq!(s.serve(&bad).unwrap_err(), err);
            assert_eq!(s.serve_degraded(&bad).unwrap_err(), err);
        }
        // A shape whose product overflows is malformed, not a panic.
        let mut huge = Matrix::random(4, 13, 53);
        huge.rows = usize::MAX;
        assert!(matches!(
            s.serve(&huge),
            Err(SessionError::MalformedInput { .. })
        ));
        assert_eq!(s.stats().requests, 0);
        assert!(s.serve(&Matrix::random(4, 13, 53)).is_ok());
    }

    #[test]
    fn shards_share_the_plan_cache_but_not_the_pool() {
        let s = session();
        let shard = s.shard();
        s.serve(&Matrix::random(6, 13, 40)).unwrap();
        let req = Matrix::random(6, 13, 41);
        let a = s.serve(&req).unwrap();
        let b = shard.serve(&req).unwrap();
        assert_eq!(a.report.output, b.report.output);
        // One build total across both shards: stats are shared, and the
        // shard answered from the cache the parent built.
        let stats = s.stats();
        assert_eq!(stats, shard.stats());
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.plan_builds, 1);
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn degraded_serves_weaken_every_layer_but_keep_the_bytes() {
        let s = session();
        let req = Matrix::random(8, 13, 60);
        let full = s.serve(&req).unwrap();
        let cheap = s.serve_degraded(&req).unwrap();
        // Byte-identical output: schemes change the checksums computed
        // alongside the GEMM, never the GEMM itself.
        assert_eq!(full.report.output, cheap.report.output);
        // A degraded pass carries no checksum lane and runs no
        // kernel-level check: every compiled stage is the bare GEMM.
        assert!(full.schemes.iter().any(|&s| s != Scheme::Unprotected));
        assert!(cheap.schemes.iter().all(|&s| s == Scheme::Unprotected));
        let bare = vec![Scheme::Unprotected; full.schemes.len()];
        assert_eq!(degraded_row(&s).schemes()[..], bare);
        let stats = s.stats();
        assert_eq!(stats.degraded_requests, 1);
        assert_eq!(stats.requests, 2);
        // The degraded compile is an overload action, not a cache miss.
        assert_eq!(stats.plan_builds, 1);
    }

    #[test]
    fn one_family_call_and_one_pack_serve_every_bucket_and_variant() {
        use std::sync::atomic::AtomicUsize;
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let family = move |b| {
            counted.fetch_add(1, Ordering::Relaxed);
            zoo::dlrm_mlp_bottom(b)
        };
        let s = Session::builder(Planner::new(DeviceSpec::t4()), "dlrm-mlp-bottom", family)
            .buckets([8, 32])
            .adaptive(AdaptConfig {
                window: 2,
                escalate_threshold: 0.5,
                relax_threshold: 0.01,
                min_dwell: 2,
            })
            .build();
        assert_eq!(calls.load(Ordering::Relaxed), 0, "build() calls nothing");
        let req = Matrix::random(8, 13, 70);
        s.serve(&req).unwrap();
        s.serve(&Matrix::random(20, 13, 71)).unwrap();
        s.serve_degraded(&req).unwrap();
        // Faults on layer 1 until its controller switches an overlay in.
        let fault = PipelineFault {
            layer: 1,
            fault: FaultPlan {
                row: 2,
                col: 50,
                after_step: 4,
                kind: FaultKind::AddValue(50.0),
            },
        };
        let overlay = (0..16)
            .find_map(|_| {
                s.serve_with_fault(&req, Some(fault)).unwrap();
                escalated_row(&s, 8)
            })
            .expect("layer 1 escalates");
        let escalated = s.serve(&req).unwrap().schemes;
        assert_ne!(escalated[1], s.plan_for_bucket(8).chosen_schemes()[1]);

        // Both buckets, the degraded pass and the overlay: one call of
        // the family, and every layer's panels are the same allocation.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let panels = crate::pipeline::tests::panels;
        let resident = panels(&s.cache.resident.get().unwrap().pipeline);
        let (small, large) = (s.compiled_for_bucket(8), s.compiled_for_bucket(32));
        let degraded = degraded_row(&s);
        for pipeline in [small.pipeline(), large.pipeline(), &degraded, &overlay] {
            let shared = panels(pipeline);
            assert_eq!(shared.len(), resident.len());
            assert!(shared.iter().zip(&resident).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
    }

    #[test]
    fn an_escalated_row_leaves_the_degraded_row_and_inspection_alone() {
        let s = Session::builder(
            Planner::new(DeviceSpec::t4()),
            "dlrm-mlp-bottom",
            zoo::dlrm_mlp_bottom,
        )
        .buckets([8, 32])
        .adaptive(AdaptConfig {
            window: 2,
            escalate_threshold: 0.5,
            relax_threshold: 0.01,
            min_dwell: 2,
        })
        .build();
        let req = Matrix::random(8, 13, 80);
        let fault = PipelineFault {
            layer: 1,
            fault: FaultPlan {
                row: 2,
                col: 50,
                after_step: 4,
                kind: FaultKind::AddValue(50.0),
            },
        };
        let escalated = (0..16)
            .find_map(|_| {
                s.serve_with_fault(&req, Some(fault)).unwrap();
                escalated_row(&s, 8)
            })
            .expect("layer 1 escalates")
            .schemes()
            .clone();
        let adaptations = s.stats().adaptations;
        assert!(adaptations > 0);

        let cheap = s.serve_degraded(&req).unwrap();
        assert!(cheap.schemes.iter().all(|&s| s == Scheme::Unprotected));
        assert_eq!(s.stats().adaptations, adaptations);
        assert_eq!(s.serve(&req).unwrap().schemes[..], escalated[..]);
        // Inspection shows the plan's pass, not the escalation.
        let planned = s.plan_for_bucket(8).chosen_schemes();
        assert_ne!(escalated[..], planned[..]);
        assert_eq!(s.compiled_for_bucket(8).schemes()[..], planned[..]);
    }

    #[test]
    fn a_bucket_plan_is_one_shared_allocation() {
        let s = session();
        let plan = s.plan_for_bucket(8);
        assert!(Arc::ptr_eq(&plan, &s.plan_for_bucket(8)));
        assert!(std::ptr::eq(s.compiled_for_bucket(8).plan(), &*plan));
        assert!(!Arc::ptr_eq(&plan, &s.plan_for_bucket(32)));
    }

    #[test]
    fn degraded_split_requests_stay_byte_identical_too() {
        let s = session();
        let big = Matrix::random(40, 13, 61);
        let full = s.serve(&big).unwrap();
        let cheap = s.serve_degraded(&big).unwrap();
        assert_eq!(full.report.output, cheap.report.output);
        assert_eq!(s.stats().degraded_requests, 1);
        assert_eq!(s.stats().split_requests, 2);
    }

    #[test]
    fn pooled_and_fresh_serves_are_byte_identical() {
        // The same request through a cold session and through a warm
        // one (workspace reused from earlier, different-shape requests)
        // must produce identical bytes.
        let warm = session();
        warm.serve(&Matrix::random(30, 13, 900)).unwrap();
        warm.serve(&Matrix::random(2, 13, 901)).unwrap();
        let cold = session();
        let req = Matrix::random(7, 13, 902);
        let a = cold.serve(&req).unwrap();
        let b = warm.serve(&req).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.report.output), bits(&b.report.output));
    }
}
