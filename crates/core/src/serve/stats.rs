//! Server-level statistics: lock-free counters plus the latency
//! histogram, snapshotted into a plain [`ServerStats`] on demand.

use crate::session::{stats_struct, SessionStats};
use aiga_util::Json;
use std::sync::atomic::{AtomicU64, Ordering};

stats_struct! {
    /// Aggregate statistics over a server's lifetime. All latencies come
    /// from the log2 histogram, so the reported percentiles are upper
    /// bounds within 2× of the true end-to-end (enqueue → scatter) latency.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ServerStats mirrored by AtomicServerStats {
        counters {
            /// Requests admitted into the queue.
            submitted,
            /// Requests completed successfully (result delivered to the handle).
            completed,
            /// Requests that failed at the session layer (e.g. feature
            /// mismatch); their handles resolve to `Err`.
            failed,
            /// Submissions turned away at admission (`QueueFull`, submit
            /// deadline expiry, submission after shutdown, or a request matrix
            /// whose buffer disagrees with its shape).
            rejected,
            /// Serve passes dispatched to the session — one per coalesced
            /// batch. An oversized request the session internally splits into
            /// bucket-sized chunks still counts as one dispatch here; the
            /// per-chunk pipeline passes show up in `session.requests`.
            batches,
            /// Requests that were served *coalesced* — sharing a pipeline pass
            /// with at least one other request.
            coalesced_requests,
            /// Largest number of requests coalesced into one dispatch.
            max_batch_requests,
            /// Largest total row count handed to one dispatch (an oversized
            /// solo request counts its full row span, even though the session
            /// executes it as several bucket-sized chunks).
            max_batch_rows,
            /// High-water mark of the admission queue depth.
            max_queue_depth,
            /// Requests transparently re-executed because their first pass
            /// resolved with an unrepaired fault verdict
            /// ([`crate::serve::ServerBuilder::retry_on_verdict`]).
            retries,
            /// Requests served under the *degraded* (unprotected) scheme
            /// assignment because queue age crossed the server's
            /// `degrade_after` threshold. Output bytes are unaffected — only
            /// protection coverage is traded for execution time.
            degraded,
            /// Requests shed under overload with
            /// [`crate::serve::ServeError::Overloaded`]: turned away at
            /// admission or expired in the queue past `shed_after` (or their
            /// own SLO deadline).
            shed,
            /// Requests resolved with [`crate::serve::ServeError::Cancelled`]
            /// after [`crate::serve::Pending::cancel`] — their batch slot was
            /// reclaimed without running a pass.
            cancelled,
            /// Worker threads the supervisor respawned after a panic.
            worker_restarts,
        }
        gauges {
            /// Queue depth at the moment of this snapshot.
            queue_depth,
            /// Median end-to-end request latency, ns (0 until a request
            /// completes).
            p50_latency_ns,
            /// 95th-percentile end-to-end request latency, ns.
            p95_latency_ns,
            /// 99th-percentile end-to-end request latency, ns.
            p99_latency_ns,
            /// Median latency of the retry re-execution alone, ns (0 until a
            /// retry happens).
            retry_p50_latency_ns,
            /// 95th-percentile retry re-execution latency, ns.
            retry_p95_latency_ns,
            /// 99th-percentile retry re-execution latency, ns.
            retry_p99_latency_ns,
        }
        rest {
            /// Retry attempts per declared bucket, as `(bucket, attempts)`
            /// pairs aligned with the session's buckets (only buckets that
            /// retried appear). The sum over all buckets equals `retries`.
            retry_attempts_by_bucket: Vec<(u64, u64)>,
            /// The wrapped session's own counters (note: the session counts
            /// coalesced passes, not server requests — `session.requests` is
            /// the number of pipeline-facing serves).
            session: SessionStats,
        }
    }
}

impl ServerStats {
    /// Every field by name, as one JSON object: `retry_attempts_by_bucket`
    /// an array of `{bucket, attempts}`, `session` nested.
    pub fn to_json(&self) -> Json {
        let by_bucket = self.retry_attempts_by_bucket.iter().map(|&(b, n)| {
            Json::obj([
                ("bucket", Json::num(b as f64)),
                ("attempts", Json::num(n as f64)),
            ])
        });
        let mut fields = self.u64_fields();
        fields.push(("retry_attempts_by_bucket", Json::Arr(by_bucket.collect())));
        fields.push(("session", self.session.to_json()));
        Json::obj(fields)
    }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_json_names_every_field_and_round_trips() {
        let live = AtomicServerStats::default();
        AtomicServerStats::add(&live.submitted, 7);
        AtomicServerStats::ratchet(&live.max_batch_rows, 32);
        let mut stats = live.snapshot();
        stats.queue_depth = 3;
        stats.p99_latency_ns = 1 << 20;
        stats.retry_attempts_by_bucket = vec![(8, 2), (32, 1)];
        stats.session.requests = 5;
        stats.session.degraded_requests = 4;
        stats.session.stage_gemm_ns = 9_000;
        let json = Json::parse(&stats.to_json().render()).unwrap();
        let Json::Obj(fields) = &json else {
            panic!("stats render as an object")
        };
        // 14 counters, 7 gauges, the per-bucket array and the session.
        assert_eq!(fields.len(), 14 + 7 + 2);
        let num = |j: &Json, key: &str| j.field(key).unwrap().as_u64().unwrap();
        assert_eq!(num(&json, "submitted"), 7);
        assert_eq!(num(&json, "max_batch_rows"), 32);
        assert_eq!(num(&json, "queue_depth"), 3);
        assert_eq!(num(&json, "p99_latency_ns"), 1 << 20);
        assert_eq!(num(&json, "worker_restarts"), 0);
        let by_bucket = json.field("retry_attempts_by_bucket").unwrap();
        let by_bucket = by_bucket.as_arr().unwrap();
        assert_eq!(by_bucket.len(), 2);
        assert_eq!(num(&by_bucket[1], "bucket"), 32);
        assert_eq!(num(&by_bucket[1], "attempts"), 1);
        let session = json.field("session").unwrap();
        assert_eq!(session, &stats.session.to_json());
        let Json::Obj(session_fields) = session else {
            panic!("session stats nest as an object")
        };
        // Ten request counters and the four stage-time totals.
        assert_eq!(session_fields.len(), 10 + 4);
        assert_eq!(num(session, "stage_gemm_ns"), 9_000);
        assert_eq!(num(session, "requests"), 5);
        assert_eq!(num(session, "degraded_requests"), 4);
    }
}
