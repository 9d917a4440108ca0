//! Server-level statistics: lock-free counters plus the latency
//! histogram, snapshotted into a plain [`ServerStats`] on demand.

use crate::session::SessionStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregate statistics over a server's lifetime. All latencies come
/// from the log2 histogram, so the reported percentiles are upper
/// bounds within 2× of the true end-to-end (enqueue → scatter) latency.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests completed successfully (result delivered to the handle).
    pub completed: u64,
    /// Requests that failed at the session layer (e.g. feature
    /// mismatch); their handles resolve to `Err`.
    pub failed: u64,
    /// Submissions turned away at admission (`QueueFull`, submit
    /// deadline expiry, submission after shutdown, or a request matrix
    /// whose buffer disagrees with its shape).
    pub rejected: u64,
    /// Serve passes dispatched to the session — one per coalesced
    /// batch. An oversized request the session internally splits into
    /// bucket-sized chunks still counts as one dispatch here; the
    /// per-chunk pipeline passes show up in `session.requests`.
    pub batches: u64,
    /// Requests that were served *coalesced* — sharing a pipeline pass
    /// with at least one other request.
    pub coalesced_requests: u64,
    /// Largest number of requests coalesced into one dispatch.
    pub max_batch_requests: u64,
    /// Largest total row count handed to one dispatch (an oversized
    /// solo request counts its full row span, even though the session
    /// executes it as several bucket-sized chunks).
    pub max_batch_rows: u64,
    /// Queue depth at the moment of this snapshot.
    pub queue_depth: u64,
    /// High-water mark of the admission queue depth.
    pub max_queue_depth: u64,
    /// Median end-to-end request latency, ns (0 until a request
    /// completes).
    pub p50_latency_ns: u64,
    /// 95th-percentile end-to-end request latency, ns.
    pub p95_latency_ns: u64,
    /// 99th-percentile end-to-end request latency, ns.
    pub p99_latency_ns: u64,
    /// Requests transparently re-executed because their first pass
    /// resolved with an unrepaired fault verdict
    /// ([`crate::serve::ServerBuilder::retry_on_verdict`]).
    pub retries: u64,
    /// Median latency of the retry re-execution alone, ns (0 until a
    /// retry happens).
    pub retry_p50_latency_ns: u64,
    /// 95th-percentile retry re-execution latency, ns.
    pub retry_p95_latency_ns: u64,
    /// 99th-percentile retry re-execution latency, ns.
    pub retry_p99_latency_ns: u64,
    /// Retry attempts per declared bucket, as `(bucket, attempts)`
    /// pairs aligned with the session's buckets (only buckets that
    /// retried appear). The sum over all buckets equals `retries`.
    pub retry_attempts_by_bucket: Vec<(u64, u64)>,
    /// Requests served under a *degraded* (one-rung-cheaper) scheme
    /// assignment because queue age crossed the server's
    /// `degrade_after` threshold. Output bytes are unaffected — only
    /// protection coverage is traded for execution time.
    pub degraded: u64,
    /// Requests shed under overload with
    /// [`crate::serve::ServeError::Overloaded`]: turned away at
    /// admission or expired in the queue past `shed_after` (or their
    /// own SLO deadline).
    pub shed: u64,
    /// Requests resolved with [`crate::serve::ServeError::Cancelled`]
    /// after [`crate::serve::Pending::cancel`] — their batch slot was
    /// reclaimed without running a pass.
    pub cancelled: u64,
    /// Worker threads the supervisor respawned after a panic.
    pub worker_restarts: u64,
    /// The wrapped session's own counters (note: the session counts
    /// coalesced passes, not server requests — `session.requests` is
    /// the number of pipeline-facing serves).
    pub session: SessionStats,
}

/// The live counters behind [`ServerStats`]. Plain relaxed atomics:
/// bookkeeping never contends with request execution.
#[derive(Default)]
pub(crate) struct AtomicServerStats {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub rejected: AtomicU64,
    pub batches: AtomicU64,
    pub coalesced_requests: AtomicU64,
    pub max_batch_requests: AtomicU64,
    pub max_batch_rows: AtomicU64,
    pub max_queue_depth: AtomicU64,
    pub retries: AtomicU64,
    pub degraded: AtomicU64,
    pub shed: AtomicU64,
    pub cancelled: AtomicU64,
    pub worker_restarts: AtomicU64,
}

impl AtomicServerStats {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub fn ratchet(counter: &AtomicU64, observed: u64) {
        counter.fetch_max(observed, Ordering::Relaxed);
    }

    /// Snapshot of the counters alone; the caller fills in queue depth,
    /// latency percentiles, and the session snapshot.
    pub fn snapshot(&self) -> ServerStats {
        ServerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
            max_batch_requests: self.max_batch_requests.load(Ordering::Relaxed),
            max_batch_rows: self.max_batch_rows.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            ..ServerStats::default()
        }
    }
}
