//! The dynamic batcher: worker loop, coalescing policy, and the
//! scatter of per-request reports.
//!
//! A worker pops the queue head, then *coalesces*: it keeps taking
//! compatible neighbors (same feature width, no injected fault, total
//! rows within the largest declared bucket) from the queue front until
//! the bucket is full, the queue runs dry (plus an optional wait
//! window), or an incompatible head is reached — FIFO order is never
//! violated. The stacked rows run ONE `Session::serve` pass — read in
//! place from the worker's stacking buffer, at exactly their own row
//! count — and each member gets its row slice back as a private
//! [`ServeReport`].
//!
//! Correctness leans on an engine invariant the session's split path
//! already depends on: per-row outputs are bit-identical across batch
//! sizes and tilings (accumulators are row-independent), so a
//! coalesced member's bytes equal a direct solo serve of it.

use super::{AtomicServerStats, PendingShared, Priority, ServeError, Shared, Slo};
use crate::pipeline::{InferenceReport, PipelineFault};
use crate::session::{ServeReport, Session};
use aiga_gpu::engine::{Dtype, Matrix};
use aiga_util::Rng64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One queued request: the caller's input copy, the optional injected
/// fault, the admission timestamp (end-to-end latency starts here), and
/// the handle slot to fulfill. The slot is `Option`al so [`finish`] can
/// take it for the real result; a request dropped with the slot still
/// in place (worker panic mid-pass, or queue leftovers after every
/// worker died) resolves its handle to [`ServeError::Aborted`] instead
/// of leaving the waiter hanging.
pub(crate) struct Request {
    pub input: Matrix,
    pub fault: Option<PipelineFault>,
    pub slo: Slo,
    /// Chaos hook: a worker *panics* on this request instead of serving
    /// it (see `Client::inject_worker_panic`).
    pub poison: bool,
    pub enqueued: Instant,
    pub state: Option<Arc<PendingShared>>,
}

impl Request {
    fn is_cancelled(&self) -> bool {
        self.state.as_ref().is_some_and(|s| s.is_cancelled())
    }
}

impl Drop for Request {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            state.fulfill(Err(ServeError::Aborted));
        }
    }
}

/// A worker thread's life: pop, triage, coalesce, execute, scatter —
/// until the queue closes and drains. Each worker serves through its
/// own [`Session::shard`]: the compiled plans are shared (built once),
/// the workspace pool is private, so concurrent passes never contend
/// on one pool mutex.
pub(crate) fn worker_loop(shared: &Shared, worker_id: u64) {
    let session = shared.session.shard();
    // Per-worker jitter source for retry backoff (decorrelates retry
    // storms across workers).
    let mut rng = Rng64::seed_from_u64(0xa16a_5e17e ^ worker_id);
    // Per-worker reusable buffers: the member list and the stacked
    // input. Both ratchet to their high-water mark, so the steady state
    // stacks without heap traffic.
    let mut members: Vec<Request> = Vec::new();
    let mut stacked = Matrix::default();
    while let Some(first) = shared.queue.pop() {
        let Some(first) = triage(shared, first) else {
            continue;
        };
        let degraded = should_degrade(shared, &first);
        collect_batch(shared, &session, first, &mut members, degraded);
        execute_batch(
            shared,
            &session,
            &mut members,
            &mut stacked,
            degraded,
            &mut rng,
        );
    }
}

/// The popped queue head meets the overload policy: cancelled requests
/// resolve to [`ServeError::Cancelled`] without a pass, requests that
/// aged past their own SLO deadline — or past the server's `shed_after`
/// (non-`High` only) — resolve to [`ServeError::Overloaded`]. Returns
/// the request only if it should still be served. Poison requests
/// panic here, exercising the supervisor's self-healing path (the drop
/// guard resolves the handle to `Aborted` during unwind).
fn triage(shared: &Shared, mut request: Request) -> Option<Request> {
    if request.poison {
        panic!("injected worker panic (chaos hook)");
    }
    if request.is_cancelled() {
        AtomicServerStats::bump(&shared.stats.cancelled);
        let state = request.state.take().expect("unresolved request");
        state.fulfill(Err(ServeError::Cancelled));
        return None;
    }
    let age = request.enqueued.elapsed();
    let past_own_deadline = request.slo.deadline.is_some_and(|d| age >= d);
    let shed_threshold = match request.slo.priority {
        Priority::High => None,
        // Low-priority work is shed one threshold earlier: the load it
        // releases is headroom for everyone else.
        Priority::Low => shared.degrade_after.or(shared.shed_after),
        Priority::Normal => shared.shed_after,
    };
    if past_own_deadline || shed_threshold.is_some_and(|t| age >= t) {
        AtomicServerStats::bump(&shared.stats.shed);
        let state = request.state.take().expect("unresolved request");
        state.fulfill(Err(ServeError::Overloaded { queue_age: age }));
        return None;
    }
    Some(request)
}

/// Whether this batch should run under the degraded (unprotected)
/// scheme assignment: the head request aged past `degrade_after`, is
/// not `High` priority, and carries no injected fault (fault passes
/// must keep their planned detection coverage).
fn should_degrade(shared: &Shared, first: &Request) -> bool {
    first.fault.is_none()
        && first.slo.priority != Priority::High
        && shared
            .degrade_after
            .is_some_and(|d| first.enqueued.elapsed() >= d)
}

/// True when `candidate` may share a pass with a batch whose head is
/// `head` = (feature width, storage dtype) — the stacked rows are one
/// matrix under one dtype tag — currently holding `rows` rows. Cancelled and poison
/// requests never coalesce (the worker triages them solo), and a
/// *degraded* batch never absorbs a `High`-priority request (those are
/// exempt from degradation).
fn compatible(
    candidate: &Request,
    head: (usize, Dtype),
    rows: usize,
    largest: usize,
    degraded: bool,
) -> bool {
    let runs_solo = candidate.fault.is_some()
        || candidate.poison
        || candidate.is_cancelled()
        || (degraded && candidate.slo.priority == Priority::High);
    !runs_solo
        && (candidate.input.cols, candidate.input.dtype) == head
        && rows + candidate.input.rows <= largest
}

/// Starting from the popped `first` request, drains compatible
/// neighbors into `members` (clearing it first).
fn collect_batch(
    shared: &Shared,
    session: &Session,
    first: Request,
    members: &mut Vec<Request>,
    degraded: bool,
) {
    members.clear();
    let largest = shared.largest_bucket;
    let head = (first.input.cols, first.input.dtype);
    let mut rows = first.input.rows;
    // Faulted requests run solo (fault coordinates address one pass);
    // bucket-filling or oversized requests have no room to share.
    let solo = first.fault.is_some() || rows >= largest;
    members.push(first);
    if solo {
        return;
    }
    let deadline =
        (shared.coalesce_window > Duration::ZERO).then(|| Instant::now() + shared.coalesce_window);
    loop {
        if let Some(next) = shared
            .queue
            .try_pop_if(|r| compatible(r, head, rows, largest, degraded))
        {
            rows += next.input.rows;
            members.push(next);
            if rows >= largest {
                return;
            }
            continue;
        }
        // Nothing compatible is queued right now. Optionally wait for
        // late arrivals — but only while the *current* bucket (the
        // instance this batch would run through) still has spare rows
        // under its cap.
        let Some(deadline) = deadline else { return };
        if rows >= session.bucket_for(rows) as usize {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        match shared.queue.pop_timeout_if(deadline - now, |r| {
            compatible(r, head, rows, largest, degraded)
        }) {
            Some(next) => {
                rows += next.input.rows;
                members.push(next);
                if rows >= largest {
                    return;
                }
            }
            // Timeout, close, or an incompatible head arrived.
            None => return,
        }
    }
}

/// Runs one pipeline pass over the collected members — degraded
/// (unprotected, identical output bytes) when the batch head
/// aged past `degrade_after` — and scatters the per-request reports.
/// `members` is drained; `stacked` is the reused row-stacking buffer.
fn execute_batch(
    shared: &Shared,
    session: &Session,
    members: &mut Vec<Request>,
    stacked: &mut Matrix,
    degraded: bool,
    rng: &mut Rng64,
) {
    let stats = &shared.stats;
    AtomicServerStats::bump(&stats.batches);
    AtomicServerStats::ratchet(&stats.max_batch_requests, members.len() as u64);

    if members.len() == 1 {
        let request = members.pop().expect("one member");
        AtomicServerStats::ratchet(&stats.max_batch_rows, request.input.rows as u64);
        let result = if degraded {
            session.serve_degraded(&request.input)
        } else {
            session.serve_with_fault(&request.input, request.fault)
        }
        .map_err(ServeError::Session);
        if degraded && result.is_ok() {
            AtomicServerStats::bump(&stats.degraded);
        }
        finish(shared, session, request, result, rng);
        return;
    }

    // Stack member rows into one contiguous request. The buffer is
    // reused across batches; its capacity ratchets to the largest
    // bucket's footprint and then stacking is allocation-free.
    let total_rows: usize = members.iter().map(|r| r.input.rows).sum();
    stacked.rows = total_rows;
    stacked.cols = members[0].input.cols;
    stacked.dtype = members[0].input.dtype;
    stacked.data.clear();
    for member in members.iter() {
        stacked.data.extend_from_slice(&member.input.data);
    }
    AtomicServerStats::ratchet(&stats.max_batch_rows, total_rows as u64);
    AtomicServerStats::add(&stats.coalesced_requests, members.len() as u64);

    let batch_result = if degraded {
        session.serve_degraded(stacked)
    } else {
        session.serve(stacked)
    };
    match batch_result {
        Ok(batch_report) => {
            if degraded {
                AtomicServerStats::add(&stats.degraded, members.len() as u64);
            }
            // A stack of empty requests has no rows to divide by and
            // an empty output: every member's share is the empty slice.
            let features_out = batch_report
                .report
                .output
                .len()
                .checked_div(total_rows)
                .unwrap_or(0);
            let mut row = 0;
            for member in members.drain(..) {
                let rows = member.input.rows;
                let output = batch_report.report.output
                    [row * features_out..(row + rows) * features_out]
                    .to_vec();
                row += rows;
                // Detections and corrections are batch-scoped (a
                // detected fault taints the whole pass), so every
                // member is flagged.
                let report = ServeReport {
                    bucket: batch_report.bucket,
                    rows,
                    schemes: batch_report.schemes.clone(),
                    report: InferenceReport {
                        output,
                        detections: batch_report.report.detections.clone(),
                        corrections: batch_report.report.corrections.clone(),
                    },
                };
                finish(shared, session, member, Ok(report), rng);
            }
        }
        Err(e) => {
            // All members share the feature width and dtype, so a session error
            // for the stack is the same error each would get alone.
            for member in members.drain(..) {
                finish(
                    shared,
                    session,
                    member,
                    Err(ServeError::Session(e.clone())),
                    rng,
                );
            }
        }
    }
}

/// Books one finished request and fulfills its handle — after the
/// transparent bounded retry, when enabled: a pass that resolved with
/// an *unrepaired* fault verdict (detected but not corrected in place)
/// re-executes the request solo, up to `max_attempts` times with
/// jittered exponential backoff, and the handle gets the last
/// re-execution's result. Under the §2.3 transient single-fault model
/// the first retry is already clean (injected faults address the
/// original launch only), so the caller never observes tainted output.
fn finish(
    shared: &Shared,
    session: &Session,
    mut request: Request,
    result: Result<ServeReport, ServeError>,
    rng: &mut Rng64,
) {
    let result = match result {
        Ok(report) if shared.retry.is_some() && report.report.fault_detected() => {
            retry(shared, session, &request, report, rng)
        }
        other => other,
    };
    shared.latency.record(request.enqueued.elapsed());
    AtomicServerStats::bump(if result.is_ok() {
        &shared.stats.completed
    } else {
        &shared.stats.failed
    });
    let state = request.state.take().expect("a request is finished once");
    state.fulfill(result);
}

/// The bounded retry loop behind [`finish`]. Each attempt is counted
/// globally (`retries`) and per bucket (`retry_attempts_by_bucket`);
/// the delay before attempt *k* is `base_delay · 2^(k-1)`, jittered to
/// 50–150% so synchronized verdicts across workers do not retry in
/// lockstep.
fn retry(
    shared: &Shared,
    session: &Session,
    request: &Request,
    first: ServeReport,
    rng: &mut Rng64,
) -> Result<ServeReport, ServeError> {
    let policy = shared.retry.expect("retry policy enabled");
    let bucket_slot = session.buckets().iter().position(|&b| b == first.bucket);
    let mut last = Ok(first);
    for attempt in 0..policy.max_attempts {
        match &last {
            Ok(report) if report.report.fault_detected() => {}
            _ => break, // clean (or a session error retries cannot fix)
        }
        AtomicServerStats::bump(&shared.stats.retries);
        if let Some(i) = bucket_slot {
            AtomicServerStats::bump(&shared.retry_by_bucket[i]);
        }
        if !policy.base_delay.is_zero() {
            let backoff = policy.base_delay * (1u32 << attempt.min(16));
            std::thread::sleep(backoff.mul_f64(0.5 + rng.gen_f64()));
        }
        let started = Instant::now();
        last = session.serve(&request.input).map_err(ServeError::Session);
        shared.retry_latency.record(started.elapsed());
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use crate::serve::Server;
    use crate::session::Session;
    use aiga_gpu::DeviceSpec;
    use aiga_nn::zoo;

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
    fn compatibility_respects_cols_rows_and_faults() {
        const HEAD: (usize, Dtype) = (13, Dtype::F16);
        let req = |rows: usize, cols: usize| Request {
            input: Matrix::zeros(rows, cols),
            fault: None,
            slo: Slo::default(),
            poison: false,
            enqueued: Instant::now(),
            state: Some(Arc::new(PendingShared::default())),
        };
        assert!(compatible(&req(4, 13), HEAD, 8, 32, false));
        assert!(
            !compatible(&req(4, 9), HEAD, 8, 32, false),
            "feature width differs"
        );
        let mut bf16 = req(4, 13);
        bf16.input.dtype = Dtype::Bf16;
        assert!(!compatible(&bf16, HEAD, 8, 32, false), "dtype differs");
        assert!(
            !compatible(&req(25, 13), HEAD, 8, 32, false),
            "overflows the bucket"
        );
        assert!(
            compatible(&req(24, 13), HEAD, 8, 32, false),
            "exactly fills"
        );
        let mut high = req(4, 13);
        high.slo.priority = Priority::High;
        assert!(compatible(&high, HEAD, 8, 32, false));
        assert!(
            !compatible(&high, HEAD, 8, 32, true),
            "high priority never joins a degraded batch"
        );
        let cancelled = req(4, 13);
        cancelled
            .state
            .as_ref()
            .unwrap()
            .cancelled
            .store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(
            !compatible(&cancelled, HEAD, 8, 32, false),
            "cancelled requests never coalesce"
        );
        let mut poison = req(1, 13);
        poison.poison = true;
        assert!(!compatible(&poison, HEAD, 8, 32, false), "poison runs solo");
        let mut faulted = req(4, 13);
        faulted.fault = Some(PipelineFault {
            layer: 0,
            fault: aiga_gpu::engine::FaultPlan {
                row: 0,
                col: 0,
                after_step: 0,
                kind: aiga_gpu::engine::FaultKind::AddValue(1.0),
            },
        });
        assert!(
            !compatible(&faulted, HEAD, 8, 32, false),
            "faulted requests run solo"
        );
    }

    #[test]
    fn single_request_round_trip_through_the_server() {
        let server = Server::builder(session()).workers(1).build();
        let client = server.client();
        let reply = client
            .submit(&Matrix::random(3, 13, 5))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(reply.rows, 3);
        assert_eq!(reply.bucket, 8);
        assert_eq!(reply.report.output.len(), 3 * 64);
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.coalesced_requests, 0);
        assert_eq!(stats.max_batch_rows, 3);
        assert!(stats.p50_latency_ns > 0);
    }

    #[test]
    fn feature_mismatch_surfaces_through_the_handle() {
        let server = Server::builder(session()).workers(1).build();
        let err = server
            .client()
            .submit(&Matrix::random(3, 9, 5))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Session(crate::session::SessionError::FeatureMismatch {
                observed: 9,
                expected: 13
            })
        ));
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let server = Server::wrap(session());
        let client = server.client();
        server.shutdown();
        let err = client.submit(&Matrix::random(3, 13, 5)).unwrap_err();
        assert_eq!(err, ServeError::Shutdown);
        let err = client.try_submit(&Matrix::random(3, 13, 5)).unwrap_err();
        assert_eq!(err, ServeError::Shutdown);
    }

    #[test]
    fn wait_timeout_hands_the_pending_back_until_ready() {
        let server = Server::builder(session()).workers(1).build();
        let client = server.client();
        // A deliberately large request keeps the worker busy long
        // enough for a zero-timeout wait to miss.
        let pending = client.submit(&Matrix::random(64, 13, 5)).unwrap();
        let pending = match pending.wait_timeout(Duration::ZERO) {
            Err(p) => p,
            Ok(_) => return, // machine fast enough to finish: nothing to assert
        };
        let reply = pending.wait().unwrap();
        assert_eq!(reply.rows, 64);
        server.shutdown();
    }
}
