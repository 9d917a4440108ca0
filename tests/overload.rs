//! Overload robustness: SLO-aware shedding, graceful degradation, and
//! worker self-healing through `aiga::serve`.
//!
//! The server's overload pipeline is admission → age check → degrade →
//! shed → scatter: past `degrade_after` pending work runs unprotected
//! (identical output bytes — schemes compute checksums beside the
//! GEMM, never in it), past `shed_after` requests resolve
//! with an explicit `Overloaded` instead of aging without bound, and a
//! panicked worker is respawned by the supervisor while its in-flight
//! handles resolve to `Aborted`. These tests pin each stage: sheds
//! resolve promptly, degraded replies stay byte-identical to solo
//! serving, cancellation reclaims the batch slot, and a killed worker
//! never takes the server down with it.

use aiga::prelude::*;
use std::time::{Duration, Instant};

fn session() -> Session {
    Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([8, 32])
    .build()
}

/// Rows of the plug request, sized to pin a worker for ~100 ms in the
/// profile under test: thread-level schemes cost about what the clean
/// kernel does and activations move between layers at vector speed, so
/// an optimized build (≈5 µs a row) needs 120× the rows a debug build
/// does.
const PLUG_ROWS: usize = if cfg!(debug_assertions) { 160 } else { 19200 };

/// A request large enough to pin a single worker for a while: over a
/// largest bucket of 32 it splits into `PLUG_ROWS / 32` chunked passes.
fn plug(client: &Client) -> Pending {
    client.submit(&Matrix::random(PLUG_ROWS, 13, 4242)).unwrap()
}

#[test]
fn overaged_queues_shed_promptly_with_overloaded() {
    let shed_after = Duration::from_millis(20);
    let server = Server::builder(session())
        .workers(1)
        .shed_after(shed_after)
        .build();
    let client = server.client();

    // Pin the worker, then let one queued request age past the shed
    // threshold.
    let plugged = plug(&client);
    let victim = client.submit(&Matrix::random(4, 13, 1)).unwrap();
    std::thread::sleep(shed_after + Duration::from_millis(10));

    // Admission-time shed: the queue head is already over-age, so the
    // submission is turned away immediately — not after queueing.
    let started = Instant::now();
    let err = client.submit(&Matrix::random(4, 13, 2)).unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shed must resolve promptly, took {:?}",
        started.elapsed()
    );
    let ServeError::Overloaded { queue_age } = err else {
        panic!("expected Overloaded, got {err:?}");
    };
    assert!(queue_age >= shed_after, "queue age {queue_age:?}");

    // High priority is exempt from age-based shedding: admitted now,
    // served once the worker frees up.
    let high = client
        .submit_with_slo(
            &Matrix::random(4, 13, 3),
            Slo {
                deadline: None,
                priority: Priority::High,
            },
        )
        .unwrap();

    // The aged victim is shed by worker triage when it reaches the
    // queue head.
    let err = victim.wait().unwrap_err();
    let ServeError::Overloaded { queue_age } = err else {
        panic!("expected Overloaded, got {err:?}");
    };
    assert!(queue_age >= shed_after);

    assert_eq!(plugged.wait().unwrap().rows, PLUG_ROWS);
    assert_eq!(high.wait().unwrap().rows, 4);

    let stats = server.shutdown();
    assert_eq!(stats.shed, 2, "{stats:?}");
    assert_eq!(stats.completed, 2, "{stats:?}");
}

#[test]
fn requests_past_their_own_slo_deadline_are_shed() {
    let server = Server::builder(session()).workers(1).build();
    let client = server.client();
    let plugged = plug(&client);
    // Even without server-wide thresholds, a request's own deadline
    // sheds it — High priority included (it is the caller's budget).
    let stale = client
        .submit_with_slo(
            &Matrix::random(4, 13, 9),
            Slo {
                deadline: Some(Duration::from_millis(1)),
                priority: Priority::High,
            },
        )
        .unwrap();
    let err = stale.wait().unwrap_err();
    assert!(matches!(err, ServeError::Overloaded { .. }), "{err:?}");
    plugged.wait().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.shed, 1);
}

#[test]
fn degraded_replies_are_byte_identical_to_solo_serving() {
    // `degrade_after(0)` forces every pass onto the degraded entry —
    // deterministic, no timing. The reference session serves solo at
    // full strength.
    let reference = session();
    let server = Server::builder(session())
        .workers(1)
        .degrade_after(Duration::ZERO)
        .build();
    let client = server.client();

    let mut replies = Vec::new();
    for seed in 0..6u64 {
        let request = Matrix::random(3 + seed as usize * 5, 13, 100 + seed);
        let reply = client.submit(&request).unwrap().wait().unwrap();
        replies.push((request, reply));
    }
    for (request, reply) in &replies {
        let solo = reference.serve(request).unwrap();
        assert_eq!(
            solo.report.output, reply.report.output,
            "degradation must never change output bytes"
        );
        // Every layer sheds its protection.
        let planned = reference.plan_for_bucket(reply.bucket);
        let planned = planned.chosen_schemes();
        assert_eq!(reply.schemes.len(), planned.len());
        assert!(
            reply.schemes[..] != planned[..],
            "schemes should actually be degraded"
        );
        assert!(
            reply.schemes.iter().all(|&d| d == Scheme::Unprotected),
            "a degraded pass runs the bare GEMMs: {:?}",
            reply.schemes
        );
    }

    // High priority opts out of degradation entirely.
    let request = Matrix::random(8, 13, 777);
    let reply = client
        .submit_with_slo(
            &request,
            Slo {
                deadline: None,
                priority: Priority::High,
            },
        )
        .unwrap()
        .wait()
        .unwrap();
    let planned = reference.plan_for_bucket(8);
    assert_eq!(reply.schemes[..], planned.chosen_schemes()[..]);

    let stats = server.shutdown();
    assert_eq!(stats.degraded, replies.len() as u64, "{stats:?}");
    assert_eq!(stats.completed, replies.len() as u64 + 1);
    assert_eq!(stats.session.degraded_requests, replies.len() as u64);
    assert_eq!(stats.shed, 0);
}

#[test]
fn killed_workers_are_respawned_and_the_server_keeps_serving() {
    let server = Server::builder(session()).workers(1).build();
    let client = server.client();

    let before = client.submit(&Matrix::random(4, 13, 50)).unwrap();
    assert_eq!(before.wait().unwrap().rows, 4);

    // Chaos: the single worker panics on a poison request. Its handle
    // resolves to Aborted (never hangs) and the supervisor respawns a
    // fresh worker on a fresh session shard.
    let poisoned = client.inject_worker_panic().unwrap();
    assert_eq!(poisoned.wait().unwrap_err(), ServeError::Aborted);

    for seed in 0..3u64 {
        let reply = client
            .submit(&Matrix::random(4, 13, 60 + seed))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(reply.rows, 4);
    }

    let stats = server.shutdown();
    assert_eq!(stats.worker_restarts, 1, "{stats:?}");
    assert_eq!(stats.completed, 4);
}

#[test]
fn repeated_worker_kills_do_not_wedge_a_multiworker_server() {
    let server = Server::builder(session()).workers(2).build();
    let client = server.client();
    for round in 0..2u64 {
        client.inject_worker_panic().unwrap();
        let reply = client
            .submit(&Matrix::random(4, 13, 80 + round))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(reply.rows, 4);
    }
    let stats = server.shutdown();
    assert_eq!(stats.worker_restarts, 2, "{stats:?}");
    assert_eq!(stats.completed, 2);
}

#[test]
fn cancel_reclaims_the_batch_slot_before_a_worker_reaches_it() {
    let server = Server::builder(session()).workers(1).build();
    let client = server.client();
    let plugged = plug(&client);
    let doomed = client.submit(&Matrix::random(4, 13, 30)).unwrap();
    assert!(doomed.cancel(), "no result yet: cancel registers");
    let err = doomed.wait().unwrap_err();
    assert_eq!(err, ServeError::Cancelled);
    plugged.wait().unwrap();

    // Cancelling after the result arrived is a no-op.
    let done = client.submit(&Matrix::random(4, 13, 31)).unwrap();
    while !done.is_ready() {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(!done.cancel());
    assert_eq!(done.wait().unwrap().rows, 4);

    let stats = server.shutdown();
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(stats.completed, 2);
}

#[test]
fn retry_policy_bounds_attempts_and_counts_per_bucket() {
    let fault = PipelineFault {
        layer: 1,
        fault: FaultPlan {
            row: 2,
            col: 50,
            after_step: 4,
            kind: FaultKind::AddValue(50.0),
        },
    };
    let server = Server::builder(session())
        .workers(1)
        .retry_policy(3, Duration::from_micros(100))
        .build();
    let reply = server
        .client()
        .submit_with_fault(&Matrix::random(8, 13, 70), Some(fault))
        .unwrap()
        .wait()
        .unwrap();
    // The injected fault is transient: the first bounded retry is
    // already clean, so exactly one attempt is spent.
    assert!(!reply.report.fault_detected(), "retry hid the fault");
    let stats = server.shutdown();
    assert_eq!(stats.retries, 1, "{stats:?}");
    assert_eq!(stats.retry_attempts_by_bucket, vec![(8, 1)]);
}

#[test]
fn saturation_burst_resolves_every_handle_and_keeps_accepted_bytes_exact() {
    // Offer load past a single worker's capacity with both thresholds
    // armed: accepted requests must come back byte-identical to solo
    // serving (degraded or not), shed requests must resolve with
    // Overloaded, and the books must balance.
    let reference = session();
    let server = Server::builder(session())
        .workers(1)
        .queue_capacity(64)
        .degrade_after(Duration::from_millis(5))
        .shed_after(Duration::from_millis(120))
        .build();

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 6;
    let outcomes: Vec<(Matrix, Result<ServeReport, ServeError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = server.client();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..PER_CLIENT {
                        let rows = 1 + (c + i * CLIENTS) % 8;
                        let request = Matrix::random(rows, 13, (c * PER_CLIENT + i) as u64);
                        let outcome = match client.submit(&request) {
                            Ok(pending) => pending.wait(),
                            Err(e) => Err(e),
                        };
                        out.push((request, outcome));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let mut completed = 0u64;
    let mut shed = 0u64;
    for (request, outcome) in &outcomes {
        match outcome {
            Ok(reply) => {
                completed += 1;
                let solo = reference.serve(request).unwrap();
                assert_eq!(
                    solo.report.output, reply.report.output,
                    "accepted replies are byte-identical to solo serving"
                );
            }
            Err(ServeError::Overloaded { queue_age }) => {
                shed += 1;
                assert!(*queue_age >= Duration::from_millis(5));
            }
            Err(e) => panic!("unexpected outcome: {e:?}"),
        }
    }
    assert_eq!(completed + shed, (CLIENTS * PER_CLIENT) as u64);
    let stats = server.shutdown();
    assert_eq!(stats.completed, completed, "{stats:?}");
    assert_eq!(stats.shed, shed, "{stats:?}");
    assert!(completed > 0, "some requests must get through");
}
