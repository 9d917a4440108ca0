//! Per-layer numbers of the traced run.
//!
//! The benchmark can only put spans around public calls, so work nested
//! below `Session::serve` is priced by *replaying* the same shapes one
//! layer down: `CompiledModel::infer_into` on a caller-owned workspace,
//! then one standalone `ProtectedGemm::run_into` per plan layer under
//! the chosen scheme, under `Unprotected`, and under the fixed schemes
//! the planner could have picked. The differences telescope:
//!
//! ```text
//! session.serve_ms = engine.busy_ms + schemes.busy_ms
//!                  + pipeline.self_ms + session.self_us / 1000
//! ```
//!
//! Replayed GEMMs run alone and from a materialized A matrix, so
//! `pipeline.self_ms` also absorbs what the pipeline gains from fused
//! im2col and branch fan-out — it can be negative.

use crate::offline::fixed_planner;
use crate::stats::Samples;
use crate::trace::Span;
use crate::{host, Clock, Metric, RunConfig, RunOutput};
use aiga::core::ProtectedPipeline;
use aiga::prelude::*;
use aiga::util::par_map;
use std::hint::black_box;

/// The protected schemes a planner restricted to one scheme is
/// measured under (`planner.guided_vs_best_fixed_x` and
/// `planner.layers_at_measured_min_frac`).
const FIXED: [Scheme; 3] = [
    Scheme::GlobalAbft,
    Scheme::ThreadLevelOneSided,
    Scheme::ThreadLevelTwoSided,
];

/// Median wall time of `f` over `iters` calls after one warm-up, ms.
fn median_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples = (0..iters)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Samples::new(samples).median()
}

/// Replays one request layer by layer for `share` of the
/// run (at least three rounds, one in a smoke run): `Session::serve`, the compiled pipeline on a
/// caller-owned workspace, then every plan layer as a standalone GEMM.
/// All of it runs interleaved in each round, so drift over the run
/// cancels in the differences. Pushes the session / pipeline / schemes
/// / engine / planner decomposition and returns `session.serve_ms`.
pub fn replay(
    net: &Network,
    session: &Session,
    input: &Matrix,
    share: f64,
    cfg: &RunConfig,
    clock: &Clock,
    out: &mut RunOutput,
) -> f64 {
    let budget_s = cfg.seconds * share;
    let min_rounds = if cfg.smoke { 1 } else { 3 };
    let compiled = session.compiled_for_bucket(session.bucket_for(input.rows));
    let shapes: Vec<GemmShape> = net.to_model().layers.iter().map(|l| l.shape).collect();
    let chosen: Vec<Scheme> = compiled.schemes().to_vec();
    let mut schemes = vec![Scheme::Unprotected];
    for s in FIXED.iter().chain(&chosen) {
        if !schemes.contains(s) {
            schemes.push(*s);
        }
    }
    // gemms[layer][scheme]: the layer's shape at the network's dtype.
    let gemms: Vec<Vec<ProtectedGemm>> = shapes
        .iter()
        .enumerate()
        .map(|(l, s)| {
            let a = Matrix::random_dtype(s.m as usize, s.k as usize, 11 + l as u64, net.dtype);
            let b = Matrix::random_dtype(s.k as usize, s.n as usize, 97 + l as u64, net.dtype);
            schemes
                .iter()
                .map(|&scheme| ProtectedGemm::new(a.clone(), b.clone(), scheme))
                .collect()
        })
        .collect();
    let sequential = ProtectedPipeline::compile(net, &chosen).with_branch_workers(1);

    let mut ws = Workspace::new();
    let mut gemm_ws = Workspace::new();
    compiled.infer_into(input, None, &mut ws); // warm both workspaces
    sequential.infer_into(input, None, &mut ws);
    let mut serve_ms = Vec::new();
    let mut pass_ms = Vec::new();
    let mut seq_ms = Vec::new();
    let mut gemm_ms = vec![vec![Vec::new(); schemes.len()]; shapes.len()];
    let mut pass_allocs = 0;
    let started = clock.now_ns();
    let mut round = 0u64;
    while round < min_rounds || ((clock.now_ns() - started) as f64) < budget_s * 1e9 {
        let root_start = clock.now_ns();
        let reply = session.serve(input);
        let serve_end = clock.now_ns();
        out.count(reply.is_ok_and(|r| !r.report.fault_detected()));
        serve_ms.push((serve_end - root_start) as f64 / 1e6);

        let allocs = host::allocations();
        let report = compiled.infer_into(input, None, &mut ws);
        pass_allocs += host::allocations() - allocs;
        let pass_end = clock.now_ns();
        out.count(!report.fault_detected());
        pass_ms.push((pass_end - serve_end) as f64 / 1e6);

        let t0 = clock.now_ns();
        black_box(sequential.infer_into(input, None, &mut ws));
        seq_ms.push((clock.now_ns() - t0) as f64 / 1e6);

        // Scheme-major, so consecutive GEMMs walk the layers in pass
        // order and touch weights the way one pass does.
        let mut spans = Vec::new();
        for s in 0..schemes.len() {
            for (l, layer) in gemms.iter().enumerate() {
                let gemm = &layer[s];
                let t0 = clock.now_ns();
                let verdict = gemm.run_into(&[], &mut gemm_ws);
                let t1 = clock.now_ns();
                out.count(verdict.is_clean());
                gemm_ms[l][s].push((t1 - t0) as f64 / 1e6);
                let name = if schemes[s] == Scheme::Unprotected {
                    "gemm.unprotected"
                } else if schemes[s] == chosen[l] {
                    "gemm.chosen"
                } else {
                    continue;
                };
                spans.push((name, t0, t1));
            }
        }
        let root = out.trace.push(Span {
            name: "replay",
            layer: "benchmark",
            req: round,
            parent: None,
            start_ns: root_start,
            end_ns: clock.now_ns(),
        });
        out.trace.push(Span {
            name: "session.serve",
            layer: "core.session",
            req: round,
            parent: Some(root),
            start_ns: root_start,
            end_ns: serve_end,
        });
        out.trace.push(Span {
            name: "pipeline.infer_into",
            layer: "core.pipeline",
            req: round,
            parent: Some(root),
            start_ns: serve_end,
            end_ns: pass_end,
        });
        for (name, start_ns, end_ns) in spans {
            let layer = if name == "gemm.chosen" {
                "core.schemes"
            } else {
                "gpu.engine"
            };
            out.trace.push(Span {
                name,
                layer,
                req: round,
                parent: Some(root),
                start_ns,
                end_ns,
            });
        }
        round += 1;
    }
    let rounds = round as usize;

    let med: Vec<Vec<f64>> = gemm_ms
        .into_iter()
        .map(|layer| {
            layer
                .into_iter()
                .map(|v| Samples::new(v).median())
                .collect()
        })
        .collect();
    let at = |scheme: Scheme| schemes.iter().position(|&s| s == scheme).expect("measured");
    let unprotected_ms: f64 = med.iter().map(|l| l[0]).sum();
    let chosen_ms: f64 = med.iter().zip(&chosen).map(|(l, &c)| l[at(c)]).sum();
    let serve_ms = Samples::new(serve_ms).median();
    let pass = Samples::new(pass_ms).median();
    let seq = Samples::new(seq_ms).median();

    let dtype_bytes = net.dtype.bytes() as f64;
    let flops: f64 = shapes.iter().map(|s| 2.0 * (s.m * s.n * s.k) as f64).sum();
    let bytes: f64 = shapes
        .iter()
        .map(|s| (s.m * s.k + s.k * s.n + s.m * s.n) as f64 * dtype_bytes)
        .sum();

    let at_min = med
        .iter()
        .zip(&chosen)
        .filter(|(l, &c)| FIXED.iter().all(|&f| l[at(c)] <= l[at(f)]))
        .count();
    let pred_err: Vec<f64> = compiled
        .plan()
        .layers
        .iter()
        .zip(&med)
        .zip(&chosen)
        .map(|((plan, l), &c)| (plan.chosen_s() * 1e3 - l[at(c)]).abs() / l[at(c)])
        .collect();

    let m = &mut out.metrics;
    let mut push = |name, value| m.push(Metric::new(name, value, rounds));
    push("session.serve_ms", serve_ms);
    push("engine.busy_ms", unprotected_ms);
    push("engine.flops", flops);
    push("engine.bytes_computed", bytes);
    push("engine.gflops", flops / (unprotected_ms * 1e6));
    push("engine.intensity_flop_per_byte", flops / bytes);
    push("schemes.busy_ms", chosen_ms - unprotected_ms);
    push("schemes.overhead_x", chosen_ms / unprotected_ms);
    push("pipeline.pass_ms", pass);
    push("pipeline.self_ms", pass - chosen_ms);
    push("pipeline.eff_gflops", flops / (pass * 1e6));
    push("pipeline.seq_pass_ms", seq);
    push("pipeline.branch_speedup_x", seq / pass);
    push(
        "pipeline.allocs_per_pass",
        pass_allocs as f64 / rounds as f64,
    );
    push("session.self_us", (serve_ms - pass) * 1e3);
    push("trace.attributed_frac", chosen_ms / serve_ms);
    push(
        "planner.layers_at_measured_min_frac",
        at_min as f64 / chosen.len() as f64,
    );
    push("planner.pred_err_med", Samples::new(pred_err).median());
    serve_ms
}

/// Whole-network latency under each fixed protected scheme, against
/// the guided plan's: `> 1` means some fixed scheme beats the plan.
pub fn fixed_scheme_twins(
    session: impl Fn(Planner) -> Session,
    input: &Matrix,
    guided_ms: f64,
    cfg: &RunConfig,
    metrics: &mut Vec<Metric>,
) {
    let iters = if cfg.smoke { 1 } else { 3 };
    let best = FIXED
        .iter()
        .map(|&scheme| {
            let twin = session(fixed_planner(scheme));
            median_ms(iters, || {
                black_box(twin.serve(input).expect("fixed-scheme twin serves"));
            })
        })
        .fold(f64::INFINITY, f64::min);
    metrics.push(Metric::new(
        "planner.guided_vs_best_fixed_x",
        guided_ms / best,
        iters,
    ));
}

/// What set-up is made of: building the network, planning it, and
/// compiling it (plan + bind weights under the chosen schemes).
pub fn build_costs(build: impl Fn() -> Network, metrics: &mut Vec<Metric>) {
    let planner = crate::offline::guided_planner();
    metrics.push(Metric::new(
        "nn.build_net_ms",
        median_ms(3, || {
            black_box(build());
        }),
        3,
    ));
    let net = build();
    let model = net.to_model();
    metrics.push(Metric::new(
        "planner.plan_ms",
        median_ms(3, || {
            black_box(planner.clone().dtype(net.dtype).plan(&model));
        }),
        3,
    ));
    metrics.push(Metric::new(
        "planner.compile_ms",
        median_ms(3, || {
            black_box(planner.compile(&net));
        }),
        3,
    ));
}

/// `serve.*` on a workload that has no `Server` in it.
pub fn no_server(metrics: &mut Vec<Metric>) {
    for m in crate::metrics::PER_LAYER {
        if m.name.starts_with("serve.") {
            metrics.push(Metric::new(m.name, 0.0, 0));
        }
    }
}

fn clean_gemm_us(a: Matrix, b: Matrix, scheme: Scheme, iters: usize) -> f64 {
    let gemm = ProtectedGemm::new(a, b, scheme);
    let mut ws = Workspace::new();
    median_ms(iters, || {
        black_box(gemm.run_into(&[], &mut ws));
    }) * 1e3
}

fn square_us(size: usize, scheme: Scheme, dtype: Dtype, iters: usize) -> f64 {
    clean_gemm_us(
        Matrix::random_dtype(size, size, 1, dtype),
        Matrix::random_dtype(size, size, 2, dtype),
        scheme,
        iters,
    )
}

/// Fixed micro-shapes, the same on every workload: engine GEMMs, the
/// host's Fig.-12 scheme ratios, codec rates, a fault campaign, the
/// fan-out cost, and the im2col copy the fused conv path avoids.
pub fn micro_probes(cfg: &RunConfig, metrics: &mut Vec<Metric>) {
    // A smoke run keeps every probe but takes a single sample of each.
    let n = |iters: usize| if cfg.smoke { 1 } else { iters };
    let mut push = |name, value, samples| metrics.push(Metric::new(name, value, samples));

    let path = aiga::gpu::engine::simd::active_path();
    push(
        "engine.active_path_simd",
        if path.is_simd() { 1.0 } else { 0.0 },
        1,
    );
    let sq64 = square_us(64, Scheme::Unprotected, Dtype::F16, n(200));
    let sq256 = square_us(256, Scheme::Unprotected, Dtype::F16, n(40));
    push("engine.sq64_us", sq64, n(200));
    push("engine.sq256_us", sq256, n(40));
    push(
        "engine.sq512_us",
        square_us(512, Scheme::Unprotected, Dtype::F16, n(10)),
        n(10),
    );
    push(
        "engine.m1_k1024_n1024_us",
        clean_gemm_us(
            Matrix::random(1, 1024, 1),
            Matrix::random(1024, 1024, 2),
            Scheme::Unprotected,
            n(15),
        ),
        n(15),
    );
    for (name, dtype) in [
        ("engine.gemm128_f16_us", Dtype::F16),
        ("engine.gemm128_bf16_us", Dtype::Bf16),
        ("engine.gemm128_fp8e4m3_us", Dtype::Fp8E4M3),
        ("engine.gemm128_int8_us", Dtype::Int8),
    ] {
        push(
            name,
            square_us(128, Scheme::Unprotected, dtype, n(50)),
            n(50),
        );
    }

    for (scheme, x_sq64, x_sq256) in [
        (
            Scheme::GlobalAbft,
            "schemes.global_x_sq64",
            "schemes.global_x_sq256",
        ),
        (
            Scheme::ThreadLevelOneSided,
            "schemes.one_sided_x_sq64",
            "schemes.one_sided_x_sq256",
        ),
        (
            Scheme::ThreadLevelTwoSided,
            "schemes.two_sided_x_sq64",
            "schemes.two_sided_x_sq256",
        ),
        (
            Scheme::ReplicationSingleAcc,
            "schemes.repl_single_x_sq64",
            "schemes.repl_single_x_sq256",
        ),
        (
            Scheme::ReplicationTraditional,
            "schemes.repl_trad_x_sq64",
            "schemes.repl_trad_x_sq256",
        ),
        (
            Scheme::MultiChecksum(2),
            "schemes.multi2_x_sq64",
            "schemes.multi2_x_sq256",
        ),
    ] {
        push(
            x_sq64,
            square_us(64, scheme, Dtype::F16, n(20)) / sq64,
            n(20),
        );
        push(
            x_sq256,
            square_us(256, scheme, Dtype::F16, n(3)) / sq256,
            n(3),
        );
    }

    const ELEMS: usize = 1 << 20;
    let codes: Vec<u16> = (0..ELEMS).map(|i| (i * 31) as u16).collect();
    let values: Vec<f32> = (0..ELEMS)
        .map(|i| (i % 4001) as f32 * 0.01 - 20.0)
        .collect();
    for (decode, encode, dtype) in [
        (
            "dtype.decode_ns_per_elem_f16",
            "dtype.encode_ns_per_elem_f16",
            Dtype::F16,
        ),
        (
            "dtype.decode_ns_per_elem_bf16",
            "dtype.encode_ns_per_elem_bf16",
            Dtype::Bf16,
        ),
        (
            "dtype.decode_ns_per_elem_fp8e4m3",
            "dtype.encode_ns_per_elem_fp8e4m3",
            Dtype::Fp8E4M3,
        ),
        (
            "dtype.decode_ns_per_elem_int8",
            "dtype.encode_ns_per_elem_int8",
            Dtype::Int8,
        ),
    ] {
        let decode_ms = median_ms(n(3), || {
            black_box(codes.iter().map(|&c| dtype.decode(c)).sum::<f32>());
        });
        let encode_ms = median_ms(n(3), || {
            black_box(
                values
                    .iter()
                    .fold(0u16, |acc, &v| acc.wrapping_add(dtype.encode(v))),
            );
        });
        push(decode, decode_ms * 1e6 / ELEMS as f64, n(3));
        push(encode, encode_ms * 1e6 / ELEMS as f64, n(3));
    }

    let trials = n(200);
    let shape = GemmShape::square(64);
    let started = std::time::Instant::now();
    let global = Campaign::new(shape, Scheme::GlobalAbft, 5).run_bit_flips(trials, cfg.seed);
    let one_sided =
        Campaign::new(shape, Scheme::ThreadLevelOneSided, 5).run_bit_flips(trials, cfg.seed);
    let elapsed = started.elapsed().as_secs_f64();
    push(
        "faults.campaign_trials_per_s",
        2.0 * trials as f64 / elapsed,
        2 * trials,
    );
    push("faults.sdc_rate_global_64", global.sdc_rate(), trials);
    push("faults.sdc_rate_one_sided_64", one_sided.sdc_rate(), trials);

    let items: Vec<usize> = (0..host::nproc()).collect();
    push(
        "util.par_map_spawn_us",
        median_ms(n(200), || {
            black_box(par_map(&items, |&i| i + 1));
        }) * 1e3,
        n(200),
    );

    let image = Tensor::random(1, 3, 224, 224, 3);
    let stem = ConvParams {
        c_out: 64,
        kernel: 3,
        stride: 2,
        padding: 0,
    };
    let mut ws = Workspace::new();
    push(
        "nn.im2col_stem_ms",
        median_ms(n(10), || im2col_into(&image, stem, &mut ws)),
        n(10),
    );
}
