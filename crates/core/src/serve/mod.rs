//! `aiga::serve` — the concurrent serving front-end.
//!
//! [`Session`] is the single-caller core: one thread calls
//! [`Session::serve`], one protected pipeline pass runs. This module is
//! the front door for *many* callers: a [`Server`] owns a session, a
//! bounded admission queue, and N worker threads, and turns concurrent
//! single/small requests into passes through the bucket instances the
//! planner priced (§7.3) via a dynamic batcher:
//!
//! ```text
//! Client::submit ──► SyncQueue (bounded, FIFO) ──► worker: coalesce
//!      │                                              │  compatible
//!      ▼                                              ▼  neighbors
//!   Pending  ◄── scatter per-request reports ◄── one Session::serve
//! ```
//!
//! Coalescing is *transparent*: a bucket is a plan key and a row cap,
//! a pass runs exactly the rows it is handed — the stacked rows, read
//! from the worker's stacking buffer where they lie — and every output
//! row is a function of its own input row alone (the engine's
//! accumulators are row-independent), so a coalesced reply is
//! byte-identical to a direct `Session::serve` of the same request —
//! `tests/serve_concurrent.rs` asserts this under multi-client stress,
//! and `tests/differential.rs` for every member of a coalesced pass over
//! generated networks, in every dtype.
//!
//! Backpressure is explicit: the queue is bounded, and the submit
//! family maps the three admission policies onto it —
//! [`Client::submit`] blocks for room, [`Client::try_submit`] fails
//! fast with [`ServeError::QueueFull`], [`Client::submit_timeout`]
//! bounds the wait with a deadline. [`Server::shutdown`] closes
//! admission, lets the workers drain every queued request, joins them,
//! and returns the final [`ServerStats`] (throughput counters,
//! coalescing high-water marks, and p50/p95/p99 end-to-end latency from
//! a lock-free log2 histogram).
//!
//! After each bucket's warmup the worker hot path inherits the
//! session's allocation discipline: pooled workspaces, pre-allocated
//! queue storage, a reused per-worker stacking buffer — the only
//! steady-state allocations are the per-request handoff constants
//! (handle, input copy, output vector), pinned by
//! `tests/alloc_server.rs`.

mod batch;
mod stats;

pub use stats::ServerStats;

use crate::pipeline::PipelineFault;
use crate::session::{ServeReport, Session, SessionError};
use aiga_gpu::engine::Matrix;
use aiga_util::sync::{PushError, SyncQueue};
use aiga_util::LatencyHistogram;
use batch::Request;
use stats::AtomicServerStats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often the supervisor thread scans for dead workers.
const SUPERVISOR_POLL: Duration = Duration::from_millis(2);

/// Why a request was not served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The session rejected the request (e.g. feature-width mismatch).
    Session(SessionError),
    /// The bounded admission queue was full (fail-fast `try_submit`).
    QueueFull,
    /// The admission queue stayed full past the submit deadline.
    SubmitTimeout,
    /// The server has been shut down; no new requests are accepted.
    Shutdown,
    /// The request was admitted but the server stopped serving it —
    /// its worker panicked mid-pass, or every worker died before the
    /// queue drained. The handle resolves instead of hanging.
    Aborted,
    /// Shed under overload: the queue had aged past the server's
    /// `shed_after` threshold (or past this request's own SLO
    /// deadline), so the server turned the request away explicitly
    /// instead of letting tail latency run away. `queue_age` is how old
    /// the unserved head (admission-time shed) or this request
    /// (in-queue shed) was at the decision.
    Overloaded {
        /// Queue age observed at the shed decision.
        queue_age: Duration,
    },
    /// The caller cancelled via [`Pending::cancel`] before a worker
    /// started the request; its batch slot was reclaimed.
    Cancelled,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Session(e) => write!(f, "session error: {e}"),
            ServeError::QueueFull => write!(f, "admission queue is full"),
            ServeError::SubmitTimeout => write!(f, "admission queue stayed full past the deadline"),
            ServeError::Shutdown => write!(f, "server has been shut down"),
            ServeError::Aborted => write!(f, "server stopped before serving this request"),
            ServeError::Overloaded { queue_age } => {
                write!(f, "shed under overload (queue age {queue_age:?})")
            }
            ServeError::Cancelled => write!(f, "request was cancelled by the caller"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SessionError> for ServeError {
    fn from(e: SessionError) -> Self {
        ServeError::Session(e)
    }
}

/// Request priority under overload. Priorities do not reorder the FIFO
/// queue — they decide who absorbs the overload response: `High`
/// requests are never age-shed and never degraded, `Low` requests are
/// the first to go.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Exempt from age-based shedding and degradation (a request's own
    /// [`Slo::deadline`] still applies).
    High,
    /// Standard treatment.
    #[default]
    Normal,
    /// Shed as soon as the queue ages past `degrade_after` (not just
    /// `shed_after`) — load shed from `Low` is headroom for the rest.
    Low,
}

/// Per-request service-level objective, attached at submission via
/// [`Client::submit_with_slo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Slo {
    /// Give up on this request once it has waited this long in the
    /// queue — a worker that finds it expired resolves the handle with
    /// [`ServeError::Overloaded`] instead of serving stale work.
    pub deadline: Option<Duration>,
    /// Who absorbs the overload response; see [`Priority`].
    pub priority: Priority,
}

/// Bounded-retry configuration (see
/// [`ServerBuilder::retry_policy`]): up to `max_attempts` re-runs with
/// exponential backoff from `base_delay`, jittered ±50%.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetryPolicy {
    pub max_attempts: u32,
    pub base_delay: Duration,
}

/// The slot a worker fulfills and a [`Pending`] waits on.
#[derive(Default)]
pub(crate) struct PendingShared {
    slot: Mutex<Option<Result<ServeReport, ServeError>>>,
    ready: Condvar,
    /// Set by [`Pending::cancel`]; a worker that sees it resolves the
    /// request with [`ServeError::Cancelled`] instead of serving it.
    cancelled: AtomicBool,
}

impl PendingShared {
    /// First writer wins: the worker's real result normally, or the
    /// [`ServeError::Aborted`] safety net from [`batch::Request`]'s
    /// drop guard when a worker dies mid-pass. Later calls are no-ops,
    /// so a waiter never sees two results and never hangs.
    pub(crate) fn fulfill(&self, result: Result<ServeReport, ServeError>) {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some(result);
            self.ready.notify_all();
        }
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// A typed handle to one in-flight request. Obtained from the
/// [`Client`] submit family; redeemed with [`Pending::wait`] (blocking)
/// or [`Pending::wait_timeout`].
pub struct Pending {
    shared: Arc<PendingShared>,
}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl Pending {
    /// True once the result is available ([`Pending::wait`] would
    /// return without blocking).
    pub fn is_ready(&self) -> bool {
        self.shared.slot.lock().unwrap().is_some()
    }

    /// Cancels the request so a timed-out caller stops wasting a batch
    /// slot: a worker that reaches it in the queue resolves the handle
    /// with [`ServeError::Cancelled`] without running a pass, and the
    /// batcher refuses to coalesce it. Cancellation is best-effort —
    /// if a worker had already started (or finished) the pass, the
    /// handle resolves with that result instead. Returns `true` when
    /// the cancel was registered before any result was available.
    pub fn cancel(&self) -> bool {
        self.shared.cancelled.store(true, Ordering::Relaxed);
        !self.is_ready()
    }

    /// Blocks until the request completes and returns its report.
    pub fn wait(self) -> Result<ServeReport, ServeError> {
        let mut slot = self.shared.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.shared.ready.wait(slot).unwrap();
        }
    }

    /// Blocks up to `timeout` for the result. On expiry the handle is
    /// returned so the caller can keep waiting (or drop it — the
    /// request still executes; its result is simply discarded).
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<ServeReport, ServeError>, Pending> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.shared.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return Ok(result);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(slot);
                return Err(self);
            }
            let (next, _) = self
                .shared
                .ready
                .wait_timeout(slot, deadline - now)
                .unwrap();
            slot = next;
        }
    }
}

/// State shared by the server handle, every client, and every worker.
pub(crate) struct Shared {
    pub session: Session,
    pub queue: SyncQueue<Request>,
    pub stats: AtomicServerStats,
    pub latency: LatencyHistogram,
    /// Latency of retry re-executions alone (end-to-end latency of a
    /// retried request still lands in `latency`).
    pub retry_latency: LatencyHistogram,
    /// Largest declared bucket — the coalescing row budget.
    pub largest_bucket: usize,
    /// How long a worker holding a partially-filled bucket waits for
    /// more compatible requests before executing.
    pub coalesce_window: Duration,
    /// Transparently re-run a request whose pass resolved with an
    /// unrepaired fault verdict — up to `max_attempts` times with
    /// jittered exponential backoff. `None` disables retry.
    pub retry: Option<RetryPolicy>,
    /// Retry attempts per declared bucket, aligned with
    /// `session.buckets()`.
    pub retry_by_bucket: Box<[AtomicU64]>,
    /// Queue age past which pending work is served *degraded*
    /// (unprotected; see [`crate::session::Session::serve_degraded`]).
    pub degrade_after: Option<Duration>,
    /// Queue age past which non-`High` requests are shed with
    /// [`ServeError::Overloaded`].
    pub shed_after: Option<Duration>,
    /// The worker-pool roster, owned by the supervisor (workers are
    /// reaped and respawned through this).
    pub workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Monotonic worker id source: names threads and seeds each
    /// worker's jitter RNG.
    pub worker_seq: AtomicU64,
    /// Target worker-pool size.
    pub worker_target: usize,
}

/// A cloneable submission handle to a [`Server`]. Clients stay valid
/// after the server shuts down (submissions then fail with
/// [`ServeError::Shutdown`]).
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

enum Admission {
    Block,
    Try,
    Deadline(Duration),
}

impl Client {
    /// Submits one request, blocking while the admission queue is full.
    /// The returned [`Pending`] resolves once a worker has served it.
    pub fn submit(&self, input: &Matrix) -> Result<Pending, ServeError> {
        self.enqueue(input, None, Slo::default(), Admission::Block)
    }

    /// Submits without blocking; a full queue is reported as
    /// [`ServeError::QueueFull`] (the request is *not* admitted).
    pub fn try_submit(&self, input: &Matrix) -> Result<Pending, ServeError> {
        self.enqueue(input, None, Slo::default(), Admission::Try)
    }

    /// Submits, blocking up to `timeout` for queue room; expiry is
    /// reported as [`ServeError::SubmitTimeout`].
    pub fn submit_timeout(&self, input: &Matrix, timeout: Duration) -> Result<Pending, ServeError> {
        self.enqueue(input, None, Slo::default(), Admission::Deadline(timeout))
    }

    /// Submits one request with an explicit service-level objective:
    /// an optional per-request queue deadline and an overload
    /// [`Priority`]. Blocking admission. On a server configured with
    /// [`ServerBuilder::shed_after`], an already-overaged queue sheds
    /// at submission with [`ServeError::Overloaded`] — immediately,
    /// before the request ever occupies a slot.
    pub fn submit_with_slo(&self, input: &Matrix, slo: Slo) -> Result<Pending, ServeError> {
        self.enqueue(input, None, slo, Admission::Block)
    }

    /// Chaos hook: enqueues a poison request whose worker *panics*
    /// instead of serving it — exercising the supervisor's self-healing
    /// path (the panicked worker's in-flight handles resolve to
    /// [`ServeError::Aborted`]; the supervisor respawns it and bumps
    /// [`ServerStats::worker_restarts`]). The returned handle resolves
    /// to `Aborted`.
    pub fn inject_worker_panic(&self) -> Result<Pending, ServeError> {
        let shared = &*self.shared;
        let state = Arc::new(PendingShared::default());
        let request = Request {
            input: Matrix::zeros(1, 1),
            fault: None,
            slo: Slo::default(),
            poison: true,
            enqueued: Instant::now(),
            state: Some(state.clone()),
        };
        match shared.queue.push(request) {
            Ok(()) => {
                AtomicServerStats::bump(&shared.stats.submitted);
                Ok(Pending { shared: state })
            }
            Err(_) => Err(ServeError::Shutdown),
        }
    }

    /// Submits a request with an injected fault (the §2.3 single-fault
    /// model, aimed at one layer of this request). Faulted requests are
    /// never coalesced — the fault plan's coordinates address rows of
    /// this request's own pass, so it runs one of its own. Blocking
    /// admission.
    pub fn submit_with_fault(
        &self,
        input: &Matrix,
        fault: Option<PipelineFault>,
    ) -> Result<Pending, ServeError> {
        self.enqueue(input, fault, Slo::default(), Admission::Block)
    }

    fn enqueue(
        &self,
        input: &Matrix,
        fault: Option<PipelineFault>,
        slo: Slo,
        admission: Admission,
    ) -> Result<Pending, ServeError> {
        let shared = &*self.shared;
        // A malformed request never reaches the queue, where it could
        // be stacked with a well-formed neighbour's rows.
        SessionError::check_shape(input)
            .inspect_err(|_| AtomicServerStats::bump(&shared.stats.rejected))?;
        // Admission-time shedding: when the head of the queue has
        // already aged past the shed threshold, adding more load only
        // deepens the overload — turn the request away *now* (an
        // explicit, promptly-resolved `Overloaded`) rather than after
        // it too has gone stale. `High` priority is exempt.
        if let Some(shed_after) = shared.shed_after {
            if slo.priority != Priority::High {
                if let Some(age) = shared.queue.head_age() {
                    if age >= shed_after {
                        AtomicServerStats::bump(&shared.stats.shed);
                        return Err(ServeError::Overloaded { queue_age: age });
                    }
                }
            }
        }
        let state = Arc::new(PendingShared::default());
        let request = Request {
            input: input.clone(),
            fault,
            slo,
            poison: false,
            enqueued: Instant::now(),
            state: Some(state.clone()),
        };
        let outcome =
            match admission {
                Admission::Block => shared.queue.push(request).map_err(|_| ServeError::Shutdown),
                Admission::Try => shared.queue.try_push(request).map_err(|e| match e {
                    PushError::Full(_) => ServeError::QueueFull,
                    PushError::Closed(_) => ServeError::Shutdown,
                }),
                Admission::Deadline(timeout) => shared
                    .queue
                    .push_timeout(request, timeout)
                    .map_err(|e| match e {
                        PushError::Full(_) => ServeError::SubmitTimeout,
                        PushError::Closed(_) => ServeError::Shutdown,
                    }),
            };
        match outcome {
            Ok(()) => {
                AtomicServerStats::bump(&shared.stats.submitted);
                AtomicServerStats::ratchet(
                    &shared.stats.max_queue_depth,
                    shared.queue.len() as u64,
                );
                Ok(Pending { shared: state })
            }
            Err(e) => {
                AtomicServerStats::bump(&shared.stats.rejected);
                Err(e)
            }
        }
    }
}

/// Builder for [`Server`]s.
pub struct ServerBuilder {
    session: Session,
    workers: usize,
    queue_capacity: usize,
    coalesce_window: Duration,
    retry: Option<RetryPolicy>,
    degrade_after: Option<Duration>,
    shed_after: Option<Duration>,
}

impl ServerBuilder {
    /// Number of worker threads executing pipeline passes (default 2;
    /// must be >= 1).
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "a server needs at least one worker");
        self.workers = workers;
        self
    }

    /// Admission queue capacity — the backpressure bound (default 64;
    /// must be >= 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        self.queue_capacity = capacity;
        self
    }

    /// How long a worker holding a partially-filled batch bucket waits
    /// for more compatible requests before executing (default 0: batch
    /// only what is already queued, adding zero latency).
    pub fn coalesce_window(mut self, window: Duration) -> Self {
        self.coalesce_window = window;
        self
    }

    /// Enables transparent retry-on-verdict: a request whose pass
    /// resolves with an *unrepaired* fault verdict (detected, and not
    /// corrected in place) is re-executed solo on a fresh pass before
    /// its handle resolves — under the §2.3 transient single-fault
    /// model the re-execution is clean. Retries are counted in
    /// [`ServerStats::retries`] with their own latency percentiles.
    /// Off by default. Shorthand for `retry_policy(1, Duration::ZERO)`.
    pub fn retry_on_verdict(mut self, on: bool) -> Self {
        self.retry = on.then_some(RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
        });
        self
    }

    /// Bounded retry-on-verdict: up to `max_attempts` re-executions,
    /// backing off exponentially from `base_delay` (delay before
    /// attempt *k* is `base_delay · 2^(k-1)`, jittered ±50% from the
    /// worker's [`aiga_util::Rng64`] so synchronized retry storms
    /// decorrelate). `Duration::ZERO` retries immediately. Attempts are
    /// counted in [`ServerStats::retries`] and per bucket in
    /// [`ServerStats::retry_attempts_by_bucket`].
    pub fn retry_policy(mut self, max_attempts: u32, base_delay: Duration) -> Self {
        assert!(max_attempts >= 1, "retry_policy needs at least one attempt");
        self.retry = Some(RetryPolicy {
            max_attempts,
            base_delay,
        });
        self
    }

    /// Queue age past which pending work is served *degraded*: every
    /// layer `Unprotected` (see [`Session::serve_degraded`]) — the one
    /// assignment that is never dearer than the plan, whatever the
    /// host. Output bytes are unchanged — schemes compute checksums
    /// beside the GEMM, never in it — so degradation trades detection
    /// coverage, not answer quality, for execution time.
    /// `High`-priority and fault-injected requests are never degraded.
    /// Off by default.
    pub fn degrade_after(mut self, age: Duration) -> Self {
        self.degrade_after = Some(age);
        self
    }

    /// Queue age past which load is *shed*: submissions are turned
    /// away and queued non-`High` requests resolve with
    /// [`ServeError::Overloaded`] instead of aging without bound.
    /// Typically set above [`ServerBuilder::degrade_after`] so the
    /// server degrades first and sheds only when that is not enough.
    /// Off by default.
    pub fn shed_after(mut self, age: Duration) -> Self {
        self.shed_after = Some(age);
        self
    }

    /// Spawns the workers (and their supervisor) and opens the doors.
    pub fn build(self) -> Server {
        let largest_bucket = *self
            .session
            .buckets()
            .last()
            .expect("sessions declare at least one bucket") as usize;
        let retry_by_bucket = self
            .session
            .buckets()
            .iter()
            .map(|_| AtomicU64::new(0))
            .collect();
        let shared = Arc::new(Shared {
            session: self.session,
            queue: SyncQueue::bounded(self.queue_capacity),
            stats: AtomicServerStats::default(),
            latency: LatencyHistogram::new(),
            retry_latency: LatencyHistogram::new(),
            largest_bucket,
            coalesce_window: self.coalesce_window,
            retry: self.retry,
            retry_by_bucket,
            degrade_after: self.degrade_after,
            shed_after: self.shed_after,
            workers: Mutex::new(Vec::with_capacity(self.workers)),
            worker_seq: AtomicU64::new(0),
            worker_target: self.workers,
        });
        {
            let mut workers = shared.workers.lock().unwrap();
            for _ in 0..self.workers {
                workers.push(spawn_worker(&shared));
            }
        }
        let supervisor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("aiga-serve-supervisor".into())
                .spawn(move || supervise(&shared))
                .expect("spawn server supervisor")
        };
        Server {
            shared,
            supervisor: Some(supervisor),
        }
    }
}

/// Spawns one worker thread over its own [`Session::shard`] (shared
/// plan cache, private workspace pool). Two or more workers are the
/// fan-out across cores, so each runs as an `aiga_util` parallel worker
/// and its GEMMs stay on its own thread; a lone worker leaves the
/// engine its intra-request stripe fan-out.
fn spawn_worker(shared: &Arc<Shared>) -> std::thread::JoinHandle<()> {
    let id = shared.worker_seq.fetch_add(1, Ordering::Relaxed);
    let shared = shared.clone();
    std::thread::Builder::new()
        .name(format!("aiga-serve-{id}"))
        .spawn(move || {
            let serve = || batch::worker_loop(&shared, id);
            if shared.worker_target >= 2 {
                aiga_util::as_worker(serve)
            } else {
                serve()
            }
        })
        .expect("spawn server worker")
}

/// The supervisor loop: reap finished workers, respawn the ones that
/// *panicked* (a worker that returns cleanly is draining a closed
/// queue), and exit once the queue is closed and every worker is
/// joined. Self-healing is bookkept in
/// [`ServerStats::worker_restarts`].
fn supervise(shared: &Arc<Shared>) {
    loop {
        {
            let mut workers = shared.workers.lock().unwrap();
            let mut i = 0;
            while i < workers.len() {
                if workers[i].is_finished() {
                    let worker = workers.swap_remove(i);
                    if worker.join().is_err() {
                        // Panicked mid-pass: its in-flight handles have
                        // already resolved to `Aborted` via the request
                        // drop guard. Replace it with a fresh worker on
                        // a fresh session shard.
                        AtomicServerStats::bump(&shared.stats.worker_restarts);
                        workers.push(spawn_worker(shared));
                    }
                } else {
                    i += 1;
                }
            }
            if shared.queue.is_closed() && workers.is_empty() {
                return;
            }
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
}

/// A concurrent serving front-end over one [`Session`]: bounded
/// admission, dynamic batching into the planner's buckets, N worker
/// threads, graceful drain on shutdown. See the [module docs](self).
pub struct Server {
    shared: Arc<Shared>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts building a server around a session.
    pub fn builder(session: Session) -> ServerBuilder {
        ServerBuilder {
            session,
            workers: 2,
            queue_capacity: 64,
            coalesce_window: Duration::ZERO,
            retry: None,
            degrade_after: None,
            shed_after: None,
        }
    }

    /// A session with default server settings (2 workers, queue of 64,
    /// no coalesce window).
    pub fn wrap(session: Session) -> Server {
        Self::builder(session).build()
    }

    /// A new submission handle. Clients are cheap to clone and safe to
    /// move to other threads.
    pub fn client(&self) -> Client {
        Client {
            shared: self.shared.clone(),
        }
    }

    /// The wrapped session (e.g. for plan inspection via
    /// [`Session::plan_for_bucket`]).
    pub fn session(&self) -> &Session {
        &self.shared.session
    }

    /// Target number of worker threads (the supervisor keeps the live
    /// pool at this size, respawning panicked workers).
    pub fn workers(&self) -> usize {
        self.shared.worker_target
    }

    /// A statistics snapshot: server counters, live queue depth,
    /// latency percentiles, and the wrapped session's counters.
    pub fn stats(&self) -> ServerStats {
        Self::stats_of(&self.shared)
    }

    fn stats_of(shared: &Shared) -> ServerStats {
        let mut stats = shared.stats.snapshot();
        stats.queue_depth = shared.queue.len() as u64;
        stats.p50_latency_ns = shared.latency.p50_ns();
        stats.p95_latency_ns = shared.latency.p95_ns();
        stats.p99_latency_ns = shared.latency.p99_ns();
        stats.retry_p50_latency_ns = shared.retry_latency.p50_ns();
        stats.retry_p95_latency_ns = shared.retry_latency.p95_ns();
        stats.retry_p99_latency_ns = shared.retry_latency.p99_ns();
        stats.retry_attempts_by_bucket = shared
            .retry_by_bucket
            .iter()
            .zip(shared.session.buckets())
            .filter_map(|(attempts, &bucket)| {
                let n = attempts.load(Ordering::Relaxed);
                (n > 0).then_some((bucket, n))
            })
            .collect();
        stats.session = shared.session.stats();
        stats
    }

    /// Graceful shutdown: closes admission (further submissions fail
    /// with [`ServeError::Shutdown`]), lets the workers drain every
    /// already-admitted request, joins them, and returns the final
    /// statistics. Every outstanding [`Pending`] resolves.
    pub fn shutdown(mut self) -> ServerStats {
        self.halt();
        Self::stats_of(&self.shared)
    }

    fn halt(&mut self) {
        self.shared.queue.close();
        // The supervisor owns the worker roster: it respawns panicked
        // workers (even mid-drain, so closed-queue leftovers still get
        // served), joins the rest as they drain out, and exits once the
        // pool is empty. Worker panics are a *handled* fault — counted
        // in `worker_restarts`, never propagated.
        let supervisor_panic = self
            .supervisor
            .take()
            .map(|s| s.join().is_err())
            .unwrap_or(false);
        // Belt and suspenders: any request still queued (e.g. pushed in
        // the close race) resolves its handle to `Aborted` on drop.
        while self.shared.queue.try_pop().is_some() {}
        if supervisor_panic && !std::thread::panicking() {
            panic!("server supervisor panicked");
        }
    }
}

impl Drop for Server {
    /// Dropping the server without an explicit [`Server::shutdown`]
    /// still drains and joins — no detached threads, no lost requests.
    fn drop(&mut self) {
        self.halt();
    }
}
