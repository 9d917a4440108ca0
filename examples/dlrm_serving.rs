//! DLRM recommendation serving under intensity-guided ABFT (§6.4.2 +
//! §7.3) — now through the concurrent `aiga::serve` front door.
//!
//! Plans Facebook-DLRM's MLPs with the builder-style `Planner`, prints
//! the per-layer choices and the overhead comparison against fixed
//! global ABFT, then stands up a `Server` — worker threads, bounded
//! admission, dynamic batching into the planner's buckets — and hits it
//! from several concurrent client threads with mixed-size requests,
//! finishing with an injected soft error and the server's statistics
//! as one JSON object (`ServerStats::to_json`: throughput counters,
//! coalescing high-water marks, p50/p95/p99 end-to-end latency, the
//! session's counters nested).
//!
//! ```sh
//! cargo run --release --example dlrm_serving
//! ```

use aiga::prelude::*;
use std::time::Duration;

fn main() {
    let planner = Planner::new(DeviceSpec::t4());

    // Pre-deployment planning: the per-layer selection flips with batch
    // size because arithmetic intensity does (§7.3).
    for batch in [1u64, 2048] {
        for model in [zoo::dlrm_mlp_bottom(batch), zoo::dlrm_mlp_top(batch)] {
            let plan = planner.plan(&model);
            println!(
                "{} @batch {batch} (aggregate AI {:.1}):",
                model.name,
                model.aggregate_intensity()
            );
            for l in &plan.layers {
                println!(
                    "  {:8} {:>16}  AI {:>6.1}  -> {}",
                    l.name,
                    l.shape.to_string(),
                    l.intensity,
                    l.chosen.label()
                );
            }
            println!(
                "  overhead: global {:.2}% | intensity-guided {:.2}% ({:.2}x reduction)\n",
                plan.fixed_scheme_overhead_pct(Scheme::GlobalAbft),
                plan.intensity_guided_overhead_pct(),
                plan.fixed_scheme_overhead_pct(Scheme::GlobalAbft)
                    / plan.intensity_guided_overhead_pct().max(1e-9)
            );
        }
    }

    // The storage dtype is a planner axis too: fewer bytes per element
    // raise every layer's arithmetic intensity, so the same model can
    // cross the compute-bound threshold and flip layers from
    // thread-level schemes to global ABFT. Print the scheme table the
    // planner chooses at each precision.
    {
        let model = zoo::dlrm_mlp_top(512);
        let dtypes = [Dtype::F16, Dtype::Bf16, Dtype::Fp8E4M3, Dtype::Int8];
        let plans: Vec<_> = dtypes
            .iter()
            .map(|&d| Planner::new(DeviceSpec::t4()).dtype(d).plan(&model))
            .collect();
        println!(
            "{} @batch 512, scheme choice per storage dtype:",
            model.name
        );
        print!("  {:8} {:>16}", "layer", "shape");
        for d in &dtypes {
            print!("  {:>22}", d.to_string());
        }
        println!();
        for i in 0..plans[0].layers.len() {
            print!(
                "  {:8} {:>16}",
                plans[0].layers[i].name,
                plans[0].layers[i].shape.to_string()
            );
            for plan in &plans {
                let l = &plan.layers[i];
                print!("  {:>13} (AI {:>5.0})", l.chosen.label(), l.intensity);
            }
            println!();
        }
        println!();
    }

    // Serving: one session (three batch buckets, lazily planned), one
    // concurrent server in front of it. The coalesce window lets the
    // dynamic batcher merge requests that arrive close together into a
    // single pass over their stacked rows.
    let session = Session::builder(planner, "dlrm-mlp-bottom", zoo::dlrm_mlp_bottom)
        .buckets([8, 32, 128])
        .build();
    let server = Server::builder(session)
        .workers(2)
        .queue_capacity(128)
        .coalesce_window(Duration::from_micros(300))
        .build();

    // Four concurrent clients, each streaming mixed-batch requests.
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 6;
    let sizes = [3usize, 8, 20, 32, 100, 7];
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let client = server.client();
            scope.spawn(move || {
                for (i, &rows) in sizes.iter().enumerate().take(PER_CLIENT) {
                    let request = Matrix::random(rows, 13, 2024 + (c * PER_CLIENT + i) as u64);
                    let reply = client.submit(&request).expect("server is up");
                    let reply = reply.wait().expect("within declared buckets");
                    assert_eq!(reply.report.output.len(), rows * 64);
                    assert!(!reply.report.fault_detected());
                    println!(
                        "client {c} request {i}: batch {rows:>3} -> bucket {:>3}, \
                         schemes [{}], detections {}",
                        reply.bucket,
                        reply
                            .schemes
                            .iter()
                            .map(|s| s.to_string())
                            .collect::<Vec<_>>()
                            .join(", "),
                        reply.report.detections.len()
                    );
                }
            });
        }
    });

    // A soft error strikes one request. Faulted requests are never
    // coalesced (the fault addresses one kernel launch), and the
    // per-layer plan catches the flip.
    let faulty = server
        .client()
        .submit_with_fault(
            &Matrix::random(32, 13, 7777),
            Some(PipelineFault {
                layer: 1,
                fault: FaultPlan {
                    row: 5,
                    col: 77,
                    after_step: 10,
                    kind: FaultKind::AddValue(12.0),
                },
            }),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert!(faulty.report.fault_detected());
    let d = &faulty.report.detections[0];
    println!(
        "\nfault in layer 1 caught by {} at layer {} ({}), residual {:.3}",
        d.scheme.label(),
        d.layer,
        d.name,
        d.residual
    );

    // Graceful shutdown: drain, join, final statistics.
    let stats = server.shutdown();
    println!("\nserver stats: {}", stats.to_json().render());
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64 + 1);
    // One build per *touched* bucket: 32 and 128 are always hit, but
    // whether any pass lands in bucket 8 depends on how the batcher
    // coalesced the small requests.
    assert!((2..=3).contains(&stats.session.plan_builds));
    assert_eq!(stats.retries, 0, "retry was not enabled on this server");

    // Transparent retry: the same soft error against a server built
    // with `retry_on_verdict(true)`. The first pass flags the fault,
    // the worker re-runs the request solo (transients don't recur),
    // and the handle resolves with the clean re-execution — the caller
    // never sees the tainted output.
    let fault = PipelineFault {
        layer: 1,
        fault: FaultPlan {
            row: 5,
            col: 77,
            after_step: 10,
            kind: FaultKind::AddValue(12.0),
        },
    };
    let retrying = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([32])
    .build();
    let server = Server::builder(retrying)
        .workers(1)
        .retry_on_verdict(true)
        .build();
    let request = Matrix::random(32, 13, 7777);
    let reply = server
        .client()
        .submit_with_fault(&request, Some(fault))
        .unwrap()
        .wait()
        .unwrap();
    assert!(!reply.report.fault_detected(), "retry hid the fault");
    let stats = server.shutdown();
    assert_eq!(stats.retries, 1);
    println!(
        "\nretry server: {} retry (retry p50 {:.2} ms) -> clean reply",
        stats.retries,
        stats.retry_p50_latency_ns as f64 / 1e6
    );

    // In-place correction: a *recovery* session goes one step further —
    // the scheme localizes the fault (tile / column / row), recomputes
    // only the implicated slice mid-pass, and re-verifies. No retry
    // pass needed; the output is byte-equal to a clean run.
    let recovering = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([32])
    .recovery(true)
    .build();
    let repaired = recovering.serve_with_fault(&request, Some(fault)).unwrap();
    assert!(!repaired.report.fault_detected());
    assert!(repaired.report.fault_corrected());
    let clean = recovering.serve(&request).unwrap();
    assert_eq!(
        repaired.report.output, clean.report.output,
        "repair must be byte-equal"
    );
    let sstats = recovering.stats();
    let c = &repaired.report.corrections[0];
    println!(
        "recovery session: {} corrected in place at layer {} ({:?}) — {} corrections, {} by vote",
        c.scheme.label(),
        c.layer,
        c.site,
        sstats.corrections,
        sstats.vote_resolutions
    );
}
