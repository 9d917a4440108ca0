//! Steady-state serving latency: `Session::serve` through the warm
//! workspace pool, against a fresh-allocation baseline that builds a
//! new `Workspace` for every request — plus the concurrent `Server`
//! front-end under 1/4/8 client threads.
//!
//! Results land in `BENCH_serving.json` (median/mean ns, iteration
//! counts, git rev) so the zero-allocation refactor's effect on serve
//! latency is tracked as data: the `pooled` rows must stay at or below
//! their `fresh_workspace` counterparts. The concurrent rows record,
//! per client count, one timed round (every client submits and awaits
//! a fixed quantum of requests), a derived throughput row (tagged
//! `value` + `unit: "req_per_s"`), and the server's own p99 end-to-end
//! latency (log2-histogram, interpolated within bins) — recorded rows with a
//! pseudo-iteration.
//!
//! The saturation sweep at the end steps offered load (client threads)
//! past the throughput knee against a shed-enabled server: achieved
//! req/s and p99 are recorded per step, plus the knee's throughput and
//! the p99 observed at the heaviest step — with `shed_after` armed the
//! latter stays bounded (overaged work resolves `Overloaded` instead
//! of stretching the tail).

use aiga_bench::harness::Recorder;
use aiga_core::{Planner, ProtectedPipeline, Server, Session};
use aiga_gpu::engine::{Matrix, Workspace};
use aiga_gpu::DeviceSpec;
use aiga_nn::{zoo, Network};
use std::hint::black_box;
use std::time::Duration;

fn main() {
    let mut rec = Recorder::new("serving");

    // --- Full serving front-end: bucket dispatch + pooled workspace.
    let session = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([8, 32])
    .build();
    let req8 = Matrix::random(8, 13, 1);
    let req32 = Matrix::random(32, 13, 2);
    let req80 = Matrix::random(80, 13, 3); // oversized: split into chunks
    session.serve(&req8).unwrap(); // plan + warm the pool
    session.serve(&req32).unwrap();
    rec.bench("serving/serve_b8_pooled", || {
        black_box(session.serve(&req8).unwrap());
    });
    rec.bench("serving/serve_b32_pooled", || {
        black_box(session.serve(&req32).unwrap());
    });
    rec.bench("serving/serve_b80_split", || {
        black_box(session.serve(&req80).unwrap());
    });

    // --- The same protected pipeline, pooled vs fresh-allocation
    // baseline: `infer_into` with a warm workspace against `infer`,
    // which builds (and drops) a cold workspace per request.
    let model = zoo::dlrm_mlp_bottom(32);
    let plan = Planner::new(DeviceSpec::t4()).plan(&model);
    let pipeline =
        ProtectedPipeline::compile(&Network::from_mlp(&model, 9), &plan.chosen_schemes());
    let mut ws = Workspace::new();
    pipeline.infer_into(&req32, None, &mut ws); // warm up
    rec.bench("serving/infer_b32_reused_workspace", || {
        black_box(pipeline.infer_into(&req32, None, &mut ws));
    });
    rec.bench("serving/infer_b32_fresh_workspace", || {
        black_box(pipeline.infer(&req32, None));
    });

    // --- Concurrent server throughput: C client threads, each
    // submitting and awaiting REQS_PER_CLIENT small requests per timed
    // round. Workers are matched to the machine (each serves through
    // its own session shard — shared plan cache, private workspace
    // pool), and the coalesce window is wide enough to merge a
    // closed-loop wave of client resubmissions into one bucket pass.
    let hw_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    const REQS_PER_CLIENT: usize = 4;
    for clients in [1usize, 4, 8] {
        let session = Session::builder(
            Planner::new(DeviceSpec::t4()),
            "dlrm-mlp-bottom",
            zoo::dlrm_mlp_bottom,
        )
        .buckets([8, 32])
        .build();
        let server = Server::builder(session)
            .workers(hw_workers.min(clients))
            .queue_capacity(64)
            .coalesce_window(Duration::from_millis(1))
            .build();
        let requests: Vec<Matrix> = (0..clients)
            .map(|c| Matrix::random(4, 13, 100 + c as u64))
            .collect();
        // Warm both buckets and the workspace pool.
        server
            .client()
            .submit(&Matrix::random(32, 13, 99))
            .unwrap()
            .wait()
            .unwrap();
        server
            .client()
            .submit(&requests[0])
            .unwrap()
            .wait()
            .unwrap();

        let result = rec.bench(&format!("serving/server_round_{clients}clients"), || {
            std::thread::scope(|scope| {
                for request in &requests {
                    let client = server.client();
                    scope.spawn(move || {
                        for _ in 0..REQS_PER_CLIENT {
                            black_box(client.submit(request).unwrap().wait().unwrap());
                        }
                    });
                }
            });
        });
        let req_per_s = (clients * REQS_PER_CLIENT) as f64 / (result.median_ns / 1e9);
        println!(
            "  -> {clients} client(s): {:.1} requests/s over the median round",
            req_per_s
        );
        rec.record_value(
            &format!("serving/server_req_per_s_{clients}clients"),
            req_per_s,
            "req_per_s",
        );
        let stats = server.shutdown();
        rec.record_ns(
            &format!("serving/server_p99_{clients}clients"),
            stats.p99_latency_ns as f64,
        );
    }

    // --- Saturation sweep: step offered load past the knee against a
    // shed-enabled server. Each step runs closed-loop client threads
    // for a fixed wall-clock slice; achieved throughput rises to the
    // knee and flattens, while shedding keeps completed-request p99
    // bounded instead of letting queue latency run away.
    let session = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([8, 32])
    .build();
    let server = Server::builder(session)
        .workers(hw_workers)
        .queue_capacity(64)
        .coalesce_window(Duration::from_millis(1))
        .degrade_after(Duration::from_millis(40))
        .shed_after(Duration::from_millis(80))
        .build();
    server
        .client()
        .submit(&Matrix::random(32, 13, 99))
        .unwrap()
        .wait()
        .unwrap();
    let slice = Duration::from_millis(400);
    let mut knee_req_per_s: f64 = 0.0;
    let mut p99_heaviest_ns = 0u64;
    let mut before = server.stats();
    for clients in [1usize, 2, 4, 8, 16, 32, 64] {
        let completed: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let client = server.client();
                    scope.spawn(move || {
                        let request = Matrix::random(4, 13, 500 + c as u64);
                        let deadline = std::time::Instant::now() + slice;
                        let mut served = 0u64;
                        while std::time::Instant::now() < deadline {
                            match client.submit(&request) {
                                Ok(pending) => {
                                    if pending.wait().is_ok() {
                                        served += 1;
                                    }
                                }
                                // Shed at admission: back off a touch so
                                // the loop does not spin on rejections.
                                Err(_) => std::thread::sleep(Duration::from_millis(2)),
                            }
                        }
                        served
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let after = server.stats();
        let achieved = completed as f64 / slice.as_secs_f64();
        let shed = after.shed - before.shed;
        let degraded = after.degraded - before.degraded;
        before = after.clone();
        println!(
            "  -> saturation {clients:>2} client(s): {achieved:.1} req/s,              {shed} shed, {degraded} degraded, p99 {:.2} ms",
            after.p99_latency_ns as f64 / 1e6
        );
        rec.record_value(
            &format!("serving/saturation_{clients}clients_req_per_s"),
            achieved,
            "req_per_s",
        );
        rec.record_value(
            &format!("serving/saturation_{clients}clients_shed"),
            shed as f64,
            "requests",
        );
        knee_req_per_s = knee_req_per_s.max(achieved);
        p99_heaviest_ns = after.p99_latency_ns;
    }
    rec.record_value(
        "serving/saturation_knee_req_per_s",
        knee_req_per_s,
        "req_per_s",
    );
    rec.record_ns("serving/saturation_p99_past_knee", p99_heaviest_ns as f64);
    println!(
        "  -> knee {knee_req_per_s:.1} req/s; p99 past the knee {:.2} ms (bounded by shed_after)",
        p99_heaviest_ns as f64 / 1e6
    );
    server.shutdown();

    rec.write().expect("write BENCH_serving.json");
}
