//! Concurrency tests for the `aiga::serve` front-end.
//!
//! The load-bearing guarantee is *coalescing transparency*: whatever
//! batch a request lands in, its reply bytes equal a direct
//! single-caller `Session::serve` of the same input. On top of that:
//! graceful shutdown drains every admitted request, and the bounded
//! queue delivers explicit backpressure (`QueueFull` fail-fast,
//! deadline-bounded submit). Malformed requests and wild faults at the
//! front door are `tests/differential.rs`'s negative half.

use aiga::prelude::*;
use std::time::{Duration, Instant};

fn session(buckets: impl IntoIterator<Item = u64>) -> Session {
    Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets(buckets)
    .build()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Spin until the admission queue is empty (the worker picked the head
/// up) so subsequent submissions race only against a *busy* worker.
fn wait_for_empty_queue(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().queue_depth > 0 {
        assert!(Instant::now() < deadline, "queue never drained");
        std::thread::yield_now();
    }
}

#[test]
fn coalesced_outputs_are_byte_identical_to_direct_session_serve() {
    // A small coalesce window plus several clients per worker makes the
    // batcher actually coalesce; byte-identity must hold regardless of
    // which batches form.
    let server = Server::builder(session([8, 32]))
        .workers(2)
        .queue_capacity(64)
        .coalesce_window(Duration::from_micros(300))
        .build();
    let reference = session([8, 32]);

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 6;
    let replies: Vec<(Matrix, ServeReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = server.client();
                scope.spawn(move || {
                    (0..PER_CLIENT)
                        .map(|i| {
                            let rows = 1 + (c * PER_CLIENT + i) % 8;
                            let input =
                                Matrix::random(rows, 13, 1000 + (c * PER_CLIENT + i) as u64);
                            let reply = client.submit(&input).unwrap().wait().unwrap();
                            (input, reply)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(replies.len(), CLIENTS * PER_CLIENT);
    for (input, reply) in &replies {
        assert_eq!(reply.rows, input.rows);
        let direct = reference.serve(input).unwrap();
        assert_eq!(
            bits(&reply.report.output),
            bits(&direct.report.output),
            "coalesced reply for a {}-row request diverged from direct serve",
            input.rows
        );
        assert!(!reply.report.fault_detected());
    }

    let stats = server.shutdown();
    assert_eq!(stats.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.failed + stats.rejected, 0);
    // Every pass is accounted for, coalesced or not.
    assert!(stats.batches <= stats.submitted);
    assert!(stats.p99_latency_ns >= stats.p50_latency_ns);
}

#[test]
fn queued_requests_coalesce_into_one_pass() {
    let server = Server::builder(session([8, 32]))
        .workers(1)
        .queue_capacity(16)
        .build();
    let client = server.client();
    let reference = session([8, 32]);

    // Occupy the single worker with a deliberately large request (split
    // into several bucket passes), then queue four small compatible
    // requests behind it. The worker must take all four in one pass.
    let giant_input = Matrix::random(256, 13, 1);
    let giant = client.submit(&giant_input).unwrap();
    wait_for_empty_queue(&server);
    let smalls: Vec<Matrix> = (0..4).map(|i| Matrix::random(4, 13, 10 + i)).collect();
    let pendings: Vec<Pending> = smalls.iter().map(|m| client.submit(m).unwrap()).collect();

    assert_eq!(giant.wait().unwrap().rows, 256);
    for (input, pending) in smalls.iter().zip(pendings) {
        let reply = pending.wait().unwrap();
        assert_eq!(reply.rows, 4);
        // 4×4 = 16 stacked rows dispatch to bucket 32; the reply bytes
        // still match a direct bucket-8 serve of the lone request.
        assert_eq!(reply.bucket, 32);
        let direct = reference.serve(input).unwrap();
        assert_eq!(direct.bucket, 8);
        assert_eq!(bits(&reply.report.output), bits(&direct.report.output));
    }

    let stats = server.shutdown();
    assert_eq!(stats.batches, 2, "giant pass + one coalesced pass");
    assert_eq!(stats.coalesced_requests, 4);
    assert_eq!(stats.max_batch_requests, 4);
    assert_eq!(stats.max_batch_rows, 256);
    assert_eq!(stats.completed, 5);
}

#[test]
fn shutdown_drains_every_admitted_request() {
    let server = Server::builder(session([8]))
        .workers(1)
        .queue_capacity(16)
        .build();
    let client = server.client();
    let inputs: Vec<Matrix> = (0..6).map(|i| Matrix::random(5, 13, 100 + i)).collect();
    let pendings: Vec<Pending> = inputs.iter().map(|m| client.submit(m).unwrap()).collect();

    // Shut down immediately: everything admitted must still be served.
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.queue_depth, 0);

    let reference = session([8]);
    for (input, pending) in inputs.iter().zip(pendings) {
        let reply = pending.wait().unwrap();
        let direct = reference.serve(input).unwrap();
        assert_eq!(bits(&reply.report.output), bits(&direct.report.output));
    }

    // The door is closed for new traffic.
    assert_eq!(client.submit(&inputs[0]).unwrap_err(), ServeError::Shutdown);
}

#[test]
fn bounded_queue_applies_backpressure() {
    // Hold the worker on a gate rather than on how long 16 bucket
    // passes happen to take: buckets compile lazily on the worker, so
    // the giant request's first pass blocks inside the family closure
    // until the test drops the sender (`recv` then errs at once, and
    // later compiles pass straight through).
    let (open_gate, gate) = std::sync::mpsc::channel::<()>();
    let gate = std::sync::Mutex::new(gate);
    let gated = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        move |b| {
            let _ = gate.lock().unwrap().recv();
            zoo::dlrm_mlp_bottom(b)
        },
    )
    .buckets([8, 32])
    .build();
    let server = Server::builder(gated).workers(1).queue_capacity(2).build();
    let client = server.client();

    // The worker takes the giant request and stalls; fill the two queue
    // slots behind it.
    let giant = client.submit(&Matrix::random(512, 13, 1)).unwrap();
    wait_for_empty_queue(&server);
    let q1 = client.try_submit(&Matrix::random(4, 13, 2)).unwrap();
    let q2 = client.try_submit(&Matrix::random(4, 13, 3)).unwrap();

    // Fail-fast policy: an immediate QueueFull, nothing admitted.
    assert_eq!(
        client.try_submit(&Matrix::random(4, 13, 4)).unwrap_err(),
        ServeError::QueueFull
    );
    // Deadline policy: bounded blocking, then SubmitTimeout.
    let t0 = Instant::now();
    assert_eq!(
        client
            .submit_timeout(&Matrix::random(4, 13, 5), Duration::from_millis(20))
            .unwrap_err(),
        ServeError::SubmitTimeout
    );
    assert!(t0.elapsed() >= Duration::from_millis(20));

    // Open the gate: the admitted requests all complete.
    drop(open_gate);
    assert_eq!(giant.wait().unwrap().rows, 512);
    assert_eq!(q1.wait().unwrap().rows, 4);
    assert_eq!(q2.wait().unwrap().rows, 4);

    let stats = server.shutdown();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.max_queue_depth, 2);
}

#[test]
fn multi_worker_servers_do_not_nest_the_engine_fan_out() {
    // Two or more server workers are the fan-out across cores: a GEMM
    // inside one must not spawn stripe threads of its own. Buckets
    // compile lazily on the worker, so the family closure reports what
    // a parallel region opened from the worker thread would fan out to.
    let host = aiga_util::effective_workers(1024);
    for (workers, want) in [(2, 1), (1, host)] {
        let (report, seen) = std::sync::mpsc::channel::<usize>();
        let probing = Session::builder(
            Planner::new(DeviceSpec::t4()),
            "dlrm-mlp-bottom",
            move |b| {
                let _ = report.send(aiga_util::effective_workers(1024));
                zoo::dlrm_mlp_bottom(b)
            },
        )
        .buckets([8])
        .build();
        let server = Server::builder(probing).workers(workers).build();
        let reply = server.client().submit(&Matrix::random(4, 13, 9)).unwrap();
        assert_eq!(reply.wait().unwrap().rows, 4);
        assert_eq!(seen.recv().unwrap(), want, "{workers}-worker server");
        server.shutdown();
    }
}

#[test]
fn faulted_requests_run_solo_and_detect() {
    let server = Server::builder(session([8, 32]))
        .workers(1)
        .queue_capacity(8)
        .build();
    let client = server.client();
    let fault = PipelineFault {
        layer: 1,
        fault: FaultPlan {
            row: 2,
            col: 50,
            after_step: 4,
            kind: FaultKind::AddValue(50.0),
        },
    };
    let clean = client.submit(&Matrix::random(4, 13, 7)).unwrap();
    let faulty = client
        .submit_with_fault(&Matrix::random(8, 13, 8), Some(fault))
        .unwrap();
    assert!(!clean.wait().unwrap().report.fault_detected());
    assert!(faulty.wait().unwrap().report.fault_detected());

    let stats = server.shutdown();
    assert_eq!(stats.completed, 2);
    // The faulted request never shares a pass.
    assert_eq!(stats.coalesced_requests, 0);
    assert_eq!(stats.session.faulty_requests, 1);
}

/// The DLRM bottom MLP served in bf16 (requests must carry bf16 codes).
fn bf16_session() -> Session {
    Session::builder_network(Planner::new(DeviceSpec::t4()), "mlp-bf16", |b| {
        Network::from_mlp(&zoo::dlrm_mlp_bottom(b), 7).with_dtype(Dtype::Bf16)
    })
    .buckets([8, 32])
    .build()
}

/// Pins the single worker on a many-pass request so everything
/// submitted next queues up behind it and is batched together.
fn plug_worker(server: &Server, client: &Client) -> Pending {
    let giant = client
        .submit(&Matrix::random_dtype(256, 13, 1, Dtype::Bf16))
        .unwrap();
    wait_for_empty_queue(server);
    giant
}

#[test]
fn dtype_bf16_requests_coalesce_and_match_solo_serves() {
    let server = Server::builder(bf16_session())
        .workers(1)
        .queue_capacity(16)
        .coalesce_window(Duration::from_millis(50))
        .build();
    let client = server.client();
    let reference = bf16_session();

    let giant = plug_worker(&server, &client);
    let smalls: Vec<Matrix> = (0..4)
        .map(|i| Matrix::random_dtype(2, 13, 20 + i, Dtype::Bf16))
        .collect();
    let pendings: Vec<Pending> = smalls.iter().map(|m| client.submit(m).unwrap()).collect();
    assert_eq!(giant.wait().unwrap().rows, 256);
    for (input, pending) in smalls.iter().zip(pendings) {
        // The stacked pass must carry the members' dtype tag, not the
        // stacking buffer's fp16 default.
        let reply = pending.wait().expect("coalesced bf16 request");
        let direct = reference.serve(input).unwrap();
        assert_eq!(bits(&reply.report.output), bits(&direct.report.output));
    }
    let stats = server.shutdown();
    assert!(stats.coalesced_requests >= 2, "{stats:?}");
    assert_eq!(stats.worker_restarts, 0);
}

#[test]
fn dtype_mismatched_requests_get_a_session_error_not_a_dead_worker() {
    let server = Server::builder(bf16_session()).workers(1).build();
    let client = server.client();
    let err = client
        .submit(&Matrix::random(2, 13, 30))
        .unwrap()
        .wait()
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::Session(SessionError::DtypeMismatch {
            observed: Dtype::F16,
            expected: Dtype::Bf16
        })
    );
    // The worker survived the bad request and keeps serving.
    let ok = Matrix::random_dtype(2, 13, 31, Dtype::Bf16);
    assert_eq!(client.submit(&ok).unwrap().wait().unwrap().rows, 2);
    assert_eq!(server.shutdown().worker_restarts, 0);
}

#[test]
fn dtype_mixed_requests_never_share_a_pass() {
    let server = Server::builder(bf16_session())
        .workers(1)
        .queue_capacity(16)
        .build();
    let client = server.client();
    let reference = bf16_session();

    // Equal widths, alternating dtypes: stacking any two neighbours
    // would misread one of them under the other's tag.
    let giant = plug_worker(&server, &client);
    let inputs = [
        Matrix::random_dtype(2, 13, 40, Dtype::Bf16),
        Matrix::random(2, 13, 41),
        Matrix::random_dtype(2, 13, 42, Dtype::Bf16),
    ];
    let pendings: Vec<Pending> = inputs.iter().map(|m| client.submit(m).unwrap()).collect();
    giant.wait().unwrap();
    for (input, pending) in inputs.iter().zip(pendings) {
        match (input.dtype, pending.wait()) {
            (Dtype::Bf16, Ok(reply)) => {
                let direct = reference.serve(input).unwrap();
                assert_eq!(bits(&reply.report.output), bits(&direct.report.output));
            }
            (Dtype::F16, Err(ServeError::Session(SessionError::DtypeMismatch { .. }))) => {}
            (dtype, other) => panic!("{dtype} request resolved to {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.coalesced_requests, 0);
    assert_eq!(stats.max_batch_requests, 1);
    assert_eq!(stats.worker_restarts, 0);
}

/// A 4×13 request whose buffer holds `len` codes instead of 52.
fn malformed(len: usize) -> (Matrix, ServeError) {
    let mut m = Matrix::random(4, 13, 90);
    m.data.resize(len, m.data[0]);
    let (rows, cols) = (m.rows, m.cols);
    let err = ServeError::Session(SessionError::MalformedInput { rows, cols, len });
    (m, err)
}

#[test]
fn a_malformed_request_cannot_shift_a_coalesced_neighbours_rows() {
    // At the parent the truncated request was stacked with its 3-row
    // neighbour under `rows = 4 + 3`, and the neighbour's reply came
    // back `Ok` with other bytes than its solo serve.
    let server = Server::builder(session([8, 32]))
        .workers(1)
        .queue_capacity(16)
        .coalesce_window(Duration::from_millis(50))
        .build();
    let client = server.client();
    let giant = client.submit(&Matrix::random(256, 13, 1)).unwrap();
    wait_for_empty_queue(&server);
    let (bad, err) = malformed(20);
    assert_eq!(client.submit(&bad).unwrap_err(), err);
    let neighbours = [Matrix::random(3, 13, 92), Matrix::random(2, 13, 93)];
    let pendings: Vec<Pending> = neighbours
        .iter()
        .map(|m| client.submit(m).unwrap())
        .collect();
    assert_eq!(giant.wait().unwrap().rows, 256);
    let reference = session([8, 32]);
    for (input, pending) in neighbours.iter().zip(pendings) {
        let reply = pending.wait().expect("well-formed neighbour");
        let solo = reference.serve(input).unwrap();
        assert_eq!(bits(&reply.report.output), bits(&solo.report.output));
    }
    let stats = server.shutdown();
    assert_eq!(stats.coalesced_requests, 2, "{stats:?}");
    assert_eq!((stats.rejected, stats.worker_restarts), (1, 0));
}

#[test]
fn empty_requests_coalesce_without_killing_the_worker() {
    // A zero-row request is well-formed: solo `Session::serve` answers
    // it `Ok` with an empty output. At the parent two of them stacked
    // into a zero-row pass and the scatter divided the output length by
    // the stack's row count — the worker died and both handles came
    // back `Aborted`.
    let server = Server::builder(session([8, 32]))
        .workers(1)
        .queue_capacity(16)
        .coalesce_window(Duration::from_millis(50))
        .build();
    let client = server.client();
    let reference = session([8, 32]);
    let empty = Matrix::zeros(0, 13);
    let neighbour = Matrix::random(3, 13, 94);
    // Behind a busy worker: first the empties alone, then around a
    // neighbour whose rows they must not shift.
    for queued in [vec![&empty, &empty], vec![&empty, &neighbour, &empty]] {
        let giant = client.submit(&Matrix::random(256, 13, 1)).unwrap();
        wait_for_empty_queue(&server);
        let pendings: Vec<Pending> = queued.iter().map(|m| client.submit(m).unwrap()).collect();
        assert_eq!(giant.wait().unwrap().rows, 256);
        for (input, pending) in queued.iter().zip(pendings) {
            let reply = pending.wait().expect("an empty stack is still a reply");
            let solo = reference.serve(input).unwrap();
            assert_eq!(reply.rows, input.rows);
            assert_eq!(reply.report.output.len(), input.rows * 64);
            assert_eq!(bits(&reply.report.output), bits(&solo.report.output));
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.coalesced_requests, 5, "{stats:?}");
    assert_eq!((stats.failed, stats.worker_restarts), (0, 0));
}
