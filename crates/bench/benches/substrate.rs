//! Microbenches of the substrate itself: FP16 conversion,
//! the functional GEMM engine (clean, faulted, and under every
//! protected scheme), and the timing model. These quantify this host's
//! engine, not the paper's GPU numbers.
//!
//! Engine results are also written to `BENCH_engine.json` (median/mean
//! ns, iteration counts, git rev) so the perf trajectory of the hot
//! path is tracked as data, not just console text.

use aiga_bench::harness::{bench, Recorder};
use aiga_core::schemes::Scheme;
use aiga_dtype::F16;
use aiga_gpu::engine::{
    gemm, gemm_into, simd, Dest, FaultKind, FaultPlan, GemmPath, Matrix, PackedWeights, Redundancy,
    TileScheme, Workspace,
};
use aiga_gpu::timing::{estimate, Calibration, KernelProfile};
use aiga_gpu::{DeviceSpec, GemmShape};
use std::hint::black_box;

/// The SIMD paths this host runs, or the scalar path alone where it has
/// none or `AIGA_FORCE_SCALAR` is set: the paths a per-path row is
/// recorded for.
fn bench_paths() -> &'static [GemmPath] {
    let paths = simd::supported_paths();
    if simd::active_path().is_simd() {
        &paths[1..]
    } else {
        &paths[..1]
    }
}

/// Who runs a measured GEMM: the calling thread alone (the region runs
/// inline under `as_worker` — what a multi-worker server's GEMMs do, and
/// what the kernel-quality gates divide), or every team member the host
/// gives it.
#[derive(Clone, Copy, PartialEq)]
enum Members {
    One,
    All,
}

/// One timed `gemm_into` on `members`, in ns.
fn timed_gemm(
    members: Members,
    a: &Matrix,
    packed: &PackedWeights,
    tile: TileScheme,
    ws: &mut Workspace,
) -> f64 {
    let t = std::time::Instant::now();
    match members {
        Members::One => aiga_util::as_worker(|| {
            black_box(gemm_into(a, packed, tile, &[], Dest::None, ws));
        }),
        Members::All => {
            black_box(gemm_into(a, packed, tile, &[], Dest::None, ws));
        }
    }
    t.elapsed().as_secs_f64() * 1e9
}

/// Every round's time of each kernel on each of [`bench_paths`], in ns
/// (`[path][round][kernel]`), with paths and kernels interleaved round
/// by round through `force_path` so a noisy runner (or the smoke run's
/// iteration cap) slows them alike — what the overhead rows divide, and
/// what makes AVX2 ↔ AVX-512 a recorded row pair of one process rather
/// than a diff across commits.
fn interleaved_rounds<const N: usize>(
    rounds: usize,
    members: Members,
    a: &Matrix,
    kernels: &[(TileScheme, PackedWeights); N],
    ws: &mut Workspace,
) -> Vec<(GemmPath, Vec<[f64; N]>)> {
    let mut times: Vec<_> = bench_paths().iter().map(|&path| (path, vec![])).collect();
    for _ in 0..rounds {
        for (path, times) in &mut times {
            simd::force_path(Some(*path));
            let round = kernels
                .each_ref()
                .map(|(tile, packed)| timed_gemm(members, a, packed, *tile, ws));
            times.push(round);
        }
    }
    simd::force_path(None);
    times
}

/// The fastest of each kernel's [`interleaved_rounds`], in ns
/// (`[path][kernel]`).
fn fastest_interleaved<const N: usize>(
    rounds: usize,
    members: Members,
    a: &Matrix,
    kernels: &[(TileScheme, PackedWeights); N],
    ws: &mut Workspace,
) -> Vec<(GemmPath, [f64; N])> {
    let times = interleaved_rounds(rounds, members, a, kernels, ws);
    let fastest = |times: &[[f64; N]]| {
        times.iter().fold([f64::INFINITY; N], |best, round| {
            std::array::from_fn(|i| best[i].min(round[i]))
        })
    };
    times
        .into_iter()
        .map(|(path, times)| (path, fastest(&times)))
        .collect()
}

/// The entry of `per_path` measured on the active path — the one the
/// gates apply to.
fn on_active_path<T: Copy>(per_path: &[(GemmPath, T)]) -> T {
    let active = simd::active_path();
    let found = per_path.iter().find(|(path, _)| *path == active);
    found.expect("the active path is a bench path").1
}

/// The median of `samples`.
fn p50(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The one-vCPU start-up hazard, as a row: a team worker starts on the
/// core of the thread that spawned it, and until the kernel moves it a
/// waiter that never yields time-slices that core with the one thread
/// that has work. The median of the first 20 fanned-out SqueezeNet-224
/// passes of this process — the team starts inside the first — against
/// the median inline pass: at most 1.1×. Must run before anything else opens a
/// region.
fn cold_start_row(rec: &mut Recorder) {
    use aiga_core::ProtectedPipeline;
    let net = aiga_nn::zoo::squeezenet_v11_net(1, 224, 224, 7);
    let schemes = vec![Scheme::ThreadLevelOneSided; net.gemm_count()];
    let pipeline = ProtectedPipeline::compile(&net, &schemes);
    let input = Matrix::random(1, net.input_features(), 5);
    let mut ws = Workspace::new();
    let mut pass_ms = || {
        let t = std::time::Instant::now();
        black_box(pipeline.infer_into(&input, None, &mut ws));
        t.elapsed().as_secs_f64() * 1e3
    };
    // Buffers grow on one member; the team has not started.
    aiga_util::as_worker(|| {
        pass_ms();
        pass_ms();
    });
    let first: Vec<f64> = (0..20).map(|_| pass_ms()).collect();
    let inline = p50(aiga_util::as_worker(|| {
        (0..20).map(|_| pass_ms()).collect()
    }));
    // Medians on both sides: the hazard slows every early pass, a
    // neighbour's burst on this shared host only a few.
    let first = p50(first);
    let x = first / inline;
    rec.record_value("team/cold_start_first20_pass_ms", first, "ms");
    rec.record_value("team/inline_pass_ms", inline, "ms");
    rec.record_value("team/cold_start_pass_x", x, "x");
    rec.gate(
        x <= 1.1,
        format!("the first 20 passes of the process ran {x:.2}x the inline pass (limit 1.1x)"),
    );
}

/// Fork-join cost rows: a region of one task per member in which every
/// task waits for all of them (so the region cannot end before the
/// workers have joined it — with trivial tasks the caller would take
/// them all and never wait), hot (back to back, workers still polling)
/// and parked (after a pause several times the 1 ms a worker polls
/// before it parks), beside what the team replaced: two scoped threads
/// spawned and joined.
fn fork_join_rows(rec: &mut Recorder) {
    use aiga_util::team;
    use std::sync::atomic::{AtomicUsize, Ordering};
    let members = team::width();
    let mut seats = vec![(); members];
    let mut rendezvous = |pause: std::time::Duration| {
        let samples = (0..200).map(|_| {
            std::thread::sleep(pause);
            let arrived = AtomicUsize::new(0);
            let t = std::time::Instant::now();
            team::run_with(&mut seats, members, &|_, _| {
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < members {
                    std::hint::spin_loop();
                }
            });
            t.elapsed().as_secs_f64() * 1e6
        });
        p50(samples.collect())
    };
    rec.record_value("team/members", members as f64, "threads");
    rendezvous(std::time::Duration::ZERO); // starts the team
    rec.record_value(
        "team/fork_join_hot_us",
        rendezvous(std::time::Duration::ZERO),
        "us",
    );
    rec.record_value(
        "team/fork_join_parked_us",
        rendezvous(std::time::Duration::from_millis(3)),
        "us",
    );
    let spawned = (0..200).map(|_| {
        let t = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| black_box(0));
            }
        });
        t.elapsed().as_secs_f64() * 1e6
    });
    rec.record_value("team/scoped_spawn_2_us", p50(spawned.collect()), "us");
}

/// One member against all of them, per shape: the SqueezeNet-224 GEMMs
/// (`m × n × k`, row-major activations) and the three fc1024 layers,
/// clean and under one-sided ABFT — and `fc1024_b256`'s layer under
/// global ABFT too, engine and check — fastest of 16 rounds, each run as
/// its pipeline stage runs it: through the bound layer, the conv shapes
/// with their write-back in the tasks (`Dest::Codes`: NCHW and ReLU),
/// the fc shapes without (an fc's slot is encoded after the walk, on
/// the caller). These are the rows the engine's two fan-out floors point
/// at: every shape here clears `BLOCK_PAR_MIN_FLOPS` but fc1024's last
/// layer (1×1000×1024), which clears `BLOCK_PAR_MIN_BYTES`, and the
/// all-member time should beat the one-member time on each. A round
/// times every scheme on one member and on all, so a slow phase of the
/// host lands on all of them alike, as [`fastest_interleaved`]'s rounds
/// do. Gate: global ABFT within 1.15× of clean at 256×1024×1024 on all
/// members — its sums ride in the tasks, and its check combines their
/// partials.
fn team_shape_rows(rec: &mut Recorder) {
    use aiga_core::BoundGemm;
    use aiga_gpu::engine::Dtype;
    for (m, n, k) in [
        (12321usize, 64usize, 27usize),
        (3025, 64, 144),
        (3025, 16, 128),
        (729, 128, 288),
        (169, 256, 576),
        (169, 1000, 512),
        (1, 1024, 1024),
        (1, 1000, 1024),
        (256, 1024, 1024),
    ] {
        let a = Matrix::random(m, k, 1);
        let b = Matrix::random(k, n, 2);
        let mut ws = Workspace::new();
        let mut slot = vec![F16::ZERO; m * n];
        let conv = k != 1024;
        let schemes: Vec<_> = [
            ("clean", Scheme::Unprotected),
            ("one_sided", Scheme::ThreadLevelOneSided),
            ("global", Scheme::GlobalAbft),
        ]
        .into_iter()
        .filter(|&(_, scheme)| scheme != Scheme::GlobalAbft || (m, n, k) == (256, 1024, 1024))
        .map(|(name, scheme)| (name, scheme.bind(&b)))
        .collect();
        let mut timed = |bound: &BoundGemm, members| {
            let dest = match conv {
                false => Dest::None,
                true => Dest::Codes {
                    codes: &mut slot,
                    dtype: Dtype::F16,
                    spatial: m,
                    relu: true,
                    stride: m * n,
                },
            };
            let t = std::time::Instant::now();
            let run = || {
                black_box(bound.run_into(a.view(), &[], dest, &mut ws));
            };
            match members {
                Members::One => aiga_util::as_worker(run),
                Members::All => run(),
            }
            t.elapsed().as_secs_f64() * 1e9
        };
        let mut best = vec![[f64::INFINITY; 2]; schemes.len()];
        for _ in 0..16 {
            for ((_, bound), best) in schemes.iter().zip(&mut best) {
                for (best, members) in best.iter_mut().zip([Members::One, Members::All]) {
                    *best = best.min(timed(bound, members));
                }
            }
        }
        for ((name, _), &[one, all]) in schemes.iter().zip(&best) {
            let row = format!("engine/team_{m}x{n}x{k}_{name}");
            rec.record_value(&format!("{row}_one_us"), one / 1e3, "us");
            rec.record_value(&format!("{row}_all_us"), all / 1e3, "us");
            rec.record_value(&format!("{row}_speedup"), one / all, "x");
        }
        if let [clean, _, global] = best[..] {
            let x = global[1] / clean[1];
            rec.record_value(&format!("engine/team_{m}x{n}x{k}_global_x"), x, "x");
            rec.gate(
                x <= 1.15,
                format!("global ABFT costs {x:.2}x the clean run at {m}x{n}x{k} on all members (limit 1.15x)"),
            );
        }
    }
}

/// What an overloaded server pays to start shedding protection: the
/// first degraded pass of a DLRM-bottom session whose two buckets (8
/// and 32) have each served once, median over nine fresh sessions. It
/// binds the all-`Unprotected` schemes over the session's packed
/// weights, then runs.
fn degraded_first_pass_row(rec: &mut Recorder) {
    use aiga_core::{Planner, Session};
    let req = Matrix::random(8, 13, 70);
    let samples = (0..9).map(|_| {
        let family = aiga_nn::zoo::dlrm_mlp_bottom;
        let session = Session::builder(Planner::new(DeviceSpec::t4()), "dlrm-mlp-bottom", family)
            .buckets([8, 32])
            .build();
        session.serve(&req).expect("bucket 8 serves");
        session
            .serve(&Matrix::random(20, 13, 71))
            .expect("bucket 32 serves");
        let t = std::time::Instant::now();
        black_box(
            session
                .serve_degraded(&req)
                .expect("a degraded pass serves"),
        );
        t.elapsed().as_secs_f64() * 1e6
    });
    let us = p50(samples.collect());
    rec.record_value("session/degraded_first_pass_us", us, "us");
}

fn main() {
    // First: it measures what a fresh process does.
    let mut rec = Recorder::new("engine");
    cold_start_row(&mut rec);
    fork_join_rows(&mut rec);
    team_shape_rows(&mut rec);
    degraded_first_pass_row(&mut rec);

    let values: Vec<f32> = (0..1024).map(|v| v as f32 * 0.37 - 200.0).collect();
    bench("fp16/from_f32_x1024", || {
        for &v in &values {
            black_box(F16::from_f32(v));
        }
    });
    let halves: Vec<F16> = values.iter().map(|&v| F16::from_f32(v)).collect();
    bench("fp16/to_f32_x1024", || {
        for &h in &halves {
            black_box(h.to_f32());
        }
    });

    // The engine-throughput suite: the numbers that gate every figure
    // reproduction, fault campaign, and serving benchmark.

    // Dispatch visibility: record which microkernel path this runner
    // selected, and fail loudly if a SIMD path was detected but the
    // dispatcher still fell back — a silent fallback would make every
    // number below quietly 5-10× worse.
    {
        let (active, detected) = (simd::active_path(), simd::detect_path());
        println!(
            "engine/gemm_path                             {}",
            active.as_str()
        );
        if std::env::var_os("AIGA_FORCE_SCALAR").is_none() {
            assert_eq!(
                active,
                detected,
                "the {} path was detected but the dispatcher selected {}",
                detected.as_str(),
                active.as_str()
            );
        }
        if !active.is_simd() {
            println!(
                "engine/gemm_path: scalar fallback (no AVX2+FMA+F16C, or AIGA_FORCE_SCALAR set)"
            );
        }
        rec.record_value(
            "engine/gemm_path_simd",
            if active.is_simd() { 1.0 } else { 0.0 },
            "bool",
        );
    }

    let gflops_of = |size: usize, median_ns: f64| 2.0 * (size as f64).powi(3) / median_ns;
    for size in [64usize, 128] {
        let a = Matrix::random(size, size, 1);
        let b = Matrix::random(size, size, 2);
        let med = rec
            .bench(&format!("engine/functional_gemm_{size}"), || {
                black_box(gemm(&a, &b, TileScheme::NONE, &[]));
            })
            .median_ns;
        rec.record_value(
            &format!("engine/functional_gemm_{size}_gflops"),
            gflops_of(size, med),
            "gflop/s",
        );
    }
    // Larger shapes through the zero-alloc workspace entry — the
    // serving hot path — with derived arithmetic throughput. 256³ sits
    // exactly at the block-parallel threshold; 512³ is beyond it.
    for size in [256usize, 512] {
        let a = Matrix::random(size, size, 1);
        let b = PackedWeights::pack(&Matrix::random(size, size, 2));
        let mut ws = Workspace::new();
        gemm_into(&a, &b, TileScheme::NONE, &[], Dest::None, &mut ws); // warm
        let med = rec
            .bench(&format!("engine/functional_gemm_{size}"), || {
                black_box(gemm_into(
                    &a,
                    &b,
                    TileScheme::NONE,
                    &[],
                    Dest::None,
                    &mut ws,
                ));
            })
            .median_ns;
        rec.record_value(
            &format!("engine/functional_gemm_{size}_gflops"),
            gflops_of(size, med),
            "gflop/s",
        );
        for (path, [ns]) in
            fastest_interleaved(12, Members::All, &a, &[(TileScheme::NONE, b)], &mut ws)
        {
            rec.record_value(
                &format!("engine/functional_gemm_{size}_gflops_{}", path.as_str()),
                gflops_of(size, ns),
                "gflop/s",
            );
        }
    }
    {
        let size = 64usize;
        let a = Matrix::random(size, size, 1);
        let b = Matrix::random(size, size, 2);
        let fault = FaultPlan {
            row: 17,
            col: 23,
            after_step: 5,
            kind: FaultKind::AddValue(100.0),
        };
        rec.bench("engine/functional_gemm_64_faulted", || {
            black_box(gemm(&a, &b, TileScheme::NONE, &[fault]));
        });
        // The thread-level schemes through the zero-alloc workspace
        // entry (what serving runs), beside a clean row on the same
        // entry so the ratios mean something.
        let mut ws = Workspace::new();
        for (name, scheme) in [
            ("clean", Scheme::Unprotected),
            ("one_sided", Scheme::ThreadLevelOneSided),
            ("two_sided", Scheme::ThreadLevelTwoSided),
            ("replication_single_acc", Scheme::ReplicationSingleAcc),
            ("replication_traditional", Scheme::ReplicationTraditional),
        ] {
            let tile = scheme.tile_scheme(size);
            let packed = PackedWeights::pack(&b);
            gemm_into(&a, &packed, tile, &[], Dest::None, &mut ws); // warm
            rec.bench(&format!("engine/gemm_64_{name}"), || {
                black_box(gemm_into(&a, &packed, tile, &[], Dest::None, &mut ws));
            });
        }
        // Global ABFT runs the unmodified kernel plus its epilogue +
        // reduce-and-compare; bench it through its bound kernel.
        let global = Scheme::GlobalAbft.bind(&b);
        rec.bench("engine/gemm_64_global_abft", || {
            black_box(global.run_into(a.view(), &[], Dest::None, &mut Workspace::new()));
        });
    }

    // The thread-level overhead gate: at 256³ one-sided ABFT must stay
    // within 1.25× of the clean kernel and two-sided within 2×. Rounds
    // interleave the three kernels, and an overhead is the median over
    // 48 rounds of each round's ratio to its clean run, so a slow or
    // fast phase of the host lands on both sides of a ratio and the gate
    // reads the kernel (the fastest-time ratios, which a clean minimum
    // caught in a fast phase inflates, stay recorded as `_fastest`).
    // Each runs on one team member — the gate is about the kernel, not
    // about who else was on the second core. The overheads are recorded
    // per SIMD path and gated on the active one (the scalar oracle is not
    // a performance path), whose rows also keep the unsuffixed names.
    // One-sided ABFT's strips walk clean and take their row checks
    // against the weights' column-group sums after the walk, so over 16
    // uncapped runs the row reads 1.08–1.16× (median 1.09 on ymm, 1.10
    // on zmm), where it read 1.25–1.38× while the tiles carried a
    // checksum lane.
    {
        let size = 256usize;
        let a = Matrix::random(size, size, 1);
        let b = Matrix::random(size, size, 2);
        let kernels = [
            Scheme::Unprotected,
            Scheme::ThreadLevelOneSided,
            Scheme::ThreadLevelTwoSided,
        ]
        .map(|scheme| {
            let tile = scheme.tile_scheme(size);
            (tile, PackedWeights::pack(&b))
        });
        let active = simd::active_path();
        for (path, rounds) in
            interleaved_rounds(48, Members::One, &a, &kernels, &mut Workspace::new())
        {
            let fastest = |i: usize| {
                rounds
                    .iter()
                    .map(|round| round[i])
                    .fold(f64::INFINITY, f64::min)
            };
            if path == active {
                rec.record_ns("engine/gemm_256_clean_best", fastest(0));
            }
            for (i, name, limit) in [(1, "one_sided", 1.25), (2, "two_sided", 2.0)] {
                let x = p50(rounds.iter().map(|round| round[i] / round[0]).collect());
                let row = format!("engine/gemm_256_{name}_overhead");
                let fastest_x = fastest(i) / fastest(0);
                rec.record_value(&format!("{row}_{}", path.as_str()), x, "x");
                rec.record_value(&format!("{row}_fastest_{}", path.as_str()), fastest_x, "x");
                if path == active {
                    rec.record_value(&row, x, "x");
                    rec.record_value(&format!("{row}_fastest"), fastest_x, "x");
                    rec.gate(
                        !path.is_simd() || x <= limit,
                        format!(
                            "{name} ABFT costs {x:.2}x the clean kernel at 256^3 on {} (limit {limit}x)",
                            path.as_str()
                        ),
                    );
                }
            }
        }
    }

    // Correction-path overhead: a faulted run through the corrected
    // entry point (localize + targeted recompute + re-verify) against
    // the same scheme's detect-only faulted run. The delta prices the
    // repair itself — one implicated slice recomputed, never the full
    // kernel — across all three localizer families.
    {
        use aiga_core::protected::ProtectedGemm;

        let shape = GemmShape::square(64);
        let fault = FaultPlan {
            row: 17,
            col: 23,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(300.0),
        };
        for (name, scheme) in [
            ("global_abft", Scheme::GlobalAbft),
            ("one_sided", Scheme::ThreadLevelOneSided),
            ("replication_traditional", Scheme::ReplicationTraditional),
            ("multi_checksum_2", Scheme::MultiChecksum(2)),
        ] {
            let gemm = ProtectedGemm::random(shape, scheme, 5);
            let mut ws = Workspace::new();
            gemm.run_into(&[fault], &mut ws); // warm the workspace
            rec.bench(&format!("engine/gemm_64_{name}_detect_faulted"), || {
                black_box(gemm.run_into(&[fault], &mut ws));
            });
            let verdict = gemm.run_corrected_into(&[fault], &mut ws);
            assert!(verdict.is_corrected(), "{scheme}: {verdict:?}");
            rec.bench(&format!("engine/gemm_64_{name}_corrected"), || {
                black_box(gemm.run_corrected_into(&[fault], &mut ws));
            });
        }
    }
    // Where a bandwidth-bound layer's time goes once its weights are
    // bound: the one-time pack of a 1024×1024 layer into resident codes,
    // a batch-1 request against the packed panels (clean, and with
    // one-sided ABFT's checksum chains riding the same stream) — each
    // per storage format, since the stream is the format's resident
    // bytes. The fp16 rows keep their unsuffixed names.
    //
    // The batch-1 gate: a one-live-row strip is bound by its weight
    // stream, so one-sided ABFT's redundant FMAs on registers must stay
    // within 1.35× of the clean kernel at 1×1024×1024. Rounds interleave
    // the two kernels and each takes its fastest time, as the 256³ gate
    // does; the clean time is recorded per SIMD path and the gate
    // enforced on the active one.
    {
        use aiga_gpu::engine::Dtype;
        for dtype in Dtype::ALL {
            let suffix = match dtype {
                Dtype::F16 => String::new(),
                other => format!("_{other}"),
            };
            let weights = Matrix::random_dtype(1024, 1024, 2, dtype);
            rec.bench(&format!("engine/bind_pack_1024{suffix}"), || {
                black_box(PackedWeights::pack(&weights));
            });
            let request = Matrix::random_dtype(1, 1024, 1, dtype);
            let mut ws = Workspace::new();
            let kernels = [Scheme::Unprotected, Scheme::ThreadLevelOneSided].map(|scheme| {
                let tile = scheme.tile_scheme(1024);
                (tile, PackedWeights::pack(&weights))
            });
            for (name, (tile, packed)) in ["clean", "one_sided"].into_iter().zip(&kernels) {
                gemm_into(&request, packed, *tile, &[], Dest::None, &mut ws); // warm
                rec.bench(
                    &format!("engine/gemm_m1_k1024_n1024_{name}{suffix}"),
                    || {
                        black_box(gemm_into(&request, packed, *tile, &[], Dest::None, &mut ws));
                    },
                );
            }
            if dtype == Dtype::F16 {
                let best = on_active_path(&fastest_interleaved(
                    24,
                    Members::One,
                    &request,
                    &kernels,
                    &mut ws,
                ));
                let x = best[1] / best[0];
                rec.record_value("engine/gemm_m1_k1024_n1024_one_sided_overhead", x, "x");
                rec.gate(
                    !simd::active_path().is_simd() || x <= 1.35,
                    format!(
                        "one-sided ABFT costs {x:.2}x the clean kernel at 1x1024x1024 (limit 1.35x)"
                    ),
                );
                // The per-path rows alternate paths over one pack: two
                // packs alternating evict each other from L2 and every
                // path then reads at the next level's speed.
                let [clean, _] = kernels;
                for (path, [ns]) in
                    fastest_interleaved(24, Members::One, &request, &[clean], &mut ws)
                {
                    let row = format!("engine/gemm_m1_k1024_n1024_clean_{}", path.as_str());
                    rec.record_ns(&row, ns);
                }
            }
        }
    }
    // The between-GEMM movers at SqueezeNet-224's largest shapes: the
    // conv write-back of the stem's 111×111×64 output (the rectangle
    // body the engine's tasks emit their blocks through — a register
    // transpose with the ReLU and the F16C narrowing into a slot on a
    // SIMD path — looped over the whole output as a repaired stage's
    // re-emission does, `encode_output`), A staging of
    // fire2's squeeze (pointwise, K=64) and 3×3 expand (im2col, K=144)
    // over 55×55 pixels with one-sided ABFT's checksum rows — every
    // stripe of the layer in turn into one member's stripe buffer, as a
    // lone member stages them, so ns/element means what it did when the
    // whole operand was staged at once — and
    // the stem's 3×3 stride-2 ceil-mode max-pool through a pipeline.
    // Each row is ns per element moved (per input element for the
    // pool). These are memory movers: on a SIMD path with F16C the
    // write-back must stay under 2 ns/element (it was ~9 as a
    // per-element walk), the stem's staging under 1.5 (3.2–5.3 when
    // each of its strips gathered four rows) and the pool under 1.0
    // (1.3–1.4 while each of its taps was a call over a row of
    // outputs); elsewhere the fallback is logged, not gated.
    {
        use aiga_core::ProtectedPipeline;
        use aiga_gpu::engine::{
            encode_output, Dtype, EmitLayout, GemmOutput, Im2colView, MatrixView,
        };
        use aiga_nn::graph::NetworkBuilder;
        let f16c = simd::active_path().is_simd() && aiga_dtype::f16c_active();
        println!(
            "engine/activation_path                       {}",
            if f16c {
                "simd+f16c"
            } else {
                "scalar codec fallback"
            }
        );
        rec.record_value("engine/activation_path_f16c", f64::from(f16c), "bool");
        let per_elem = |rec: &mut Recorder, name: &str, elems: usize, f: &mut dyn FnMut()| {
            let ns = rec.bench(&format!("engine/{name}"), f).median_ns / elems as f64;
            rec.record_value(&format!("engine/{name}_ns_per_elem"), ns, "ns/elem");
            ns
        };

        let (spatial, chans) = (111 * 111, 64);
        let mut out = GemmOutput {
            m: spatial,
            n: chans,
            ..GemmOutput::default()
        };
        out.c = (0..spatial * chans)
            .map(|i| (i % 977) as f32 * 0.01 - 4.0)
            .collect();
        let mut slot = vec![F16::ZERO; spatial * chans];
        let layout = EmitLayout {
            conv_spatial: Some(spatial),
            relu: true,
        };
        let ns = per_elem(
            &mut rec,
            "emit_conv_12321x64_f16",
            spatial * chans,
            &mut || {
                encode_output(&out, layout, Dtype::F16, &mut slot);
                black_box(&slot);
            },
        );
        rec.gate(
            !f16c || ns <= 2.0,
            format!("conv write-back costs {ns:.2} ns/element on the SIMD+F16C path (limit 2)"),
        );

        let mut ws = Workspace::new();
        // Global ABFT's lanes: the staging that still takes the strips'
        // sums (one-sided ABFT stages none since its wide strips are
        // checked by rows), so the rows and the stem's gate keep
        // measuring the summed stripe body.
        let lanes = Redundancy::GlobalSums;
        let squeeze = Matrix::random(1, 64 * 3025, 4);
        let view = MatrixView::nchw_lowered(1, 64, 3025, &squeeze.data, Dtype::F16);
        per_elem(
            &mut rec,
            "stage_a_pointwise_3025x64",
            3025 * 64,
            &mut || {
                for stripe in 0..3025usize.div_ceil(64) {
                    ws.stage_stripe(view, lanes, 64, stripe);
                }
                black_box(&ws);
            },
        );
        let squeezed = Matrix::random(1, 16 * 3025, 5);
        let geom = Im2colView {
            channels: 16,
            height: 55,
            width: 55,
            kernel: 3,
            stride: 1,
            padding: 1,
            out_h: 55,
            out_w: 55,
        };
        let view = MatrixView::im2col_lowered(1, geom, &squeezed.data, Dtype::F16);
        per_elem(
            &mut rec,
            "stage_a_im2col3x3_3025x144",
            3025 * 144,
            &mut || {
                for stripe in 0..3025usize.div_ceil(64) {
                    ws.stage_stripe(view, lanes, 144, stripe);
                }
                black_box(&ws);
            },
        );
        // The stem's lowering (224², 3 channels, 3×3 stride 2: every
        // tap a stride-2 run) and fire9's 3×3 expand at 13² (64
        // channels, K = 576: 13-pixel rows, so a stripe crosses five).
        let mut stage_conv = |rec: &mut Recorder, name: &str, geom: Im2colView, seed, lanes| {
            let input = Matrix::random(1, geom.channels * geom.height * geom.width, seed);
            let view = MatrixView::im2col_lowered(1, geom, &input.data, Dtype::F16);
            let k = view.cols.next_multiple_of(8);
            per_elem(rec, name, view.rows * view.cols, &mut || {
                for stripe in 0..view.rows.div_ceil(64) {
                    ws.stage_stripe(view, lanes, k, stripe);
                }
                black_box(&ws);
            })
        };
        let stem = Im2colView {
            channels: 3,
            height: 224,
            width: 224,
            kernel: 3,
            stride: 2,
            padding: 0,
            out_h: 111,
            out_w: 111,
        };
        let ns = stage_conv(&mut rec, "stage_a_im2col3x3s2_12321x27", stem, 7, lanes);
        // The same stem as one-sided ABFT stages it: no sums.
        let one_sided = Redundancy::ColumnChecksum;
        stage_conv(
            &mut rec,
            "stage_a_im2col3x3s2_12321x27_one_sided",
            stem,
            7,
            one_sided,
        );
        rec.gate(
            !f16c || ns <= 1.5,
            format!(
                "the stem's A staging costs {ns:.2} ns/element on the SIMD+F16C path (limit 1.5)"
            ),
        );
        let fire9 = Im2colView {
            channels: 64,
            height: 13,
            width: 13,
            out_h: 13,
            out_w: 13,
            ..geom
        };
        stage_conv(&mut rec, "stage_a_im2col3x3_169x576", fire9, 8, lanes);

        // A network needs a GEMM layer: a 1-channel 1×1 conv over the
        // pooled 55×55 planes rides along (≈10% of the row).
        let mut net = NetworkBuilder::new("pool", 1, 64, 111, 111, 7);
        net.max_pool_ceil("pool", 3, 2, 0);
        net.conv("tail", 1, 1, 1, 0, false);
        let pool = ProtectedPipeline::compile(&net.build(), &[Scheme::Unprotected]);
        let input = Matrix::random(1, 64 * 111 * 111, 6);
        let ns = per_elem(
            &mut rec,
            "pool3x3s2_64x111x111",
            64 * 111 * 111,
            &mut || {
                black_box(pool.infer_into(&input, None, &mut ws));
            },
        );
        rec.gate(
            !f16c || ns <= 1.0,
            format!("the stem's max-pool costs {ns:.2} ns/element on the SIMD+F16C path (limit 1)"),
        );
        // The same pool on one member against all of them — the stage
        // alone (`StageTimes::pool_ns`), fastest of interleaved rounds:
        // what `POOL_PLANES_PER_TASK` and `POOL_PAR_MIN_ELEMS` in
        // `pipeline.rs` point at.
        let mut pool_us = |members| {
            let mut pass = || pool.infer_timed_into(&input, None, &mut ws).1.pool_ns;
            let ns = match members {
                Members::One => aiga_util::as_worker(pass),
                Members::All => pass(),
            };
            ns as f64 / 1e3
        };
        let mut best = [f64::INFINITY; 2];
        for _ in 0..24 {
            for (best, members) in best.iter_mut().zip([Members::One, Members::All]) {
                *best = best.min(pool_us(members));
            }
        }
        let row = "engine/pool3x3s2_64x111x111";
        rec.record_value(&format!("{row}_one_us"), best[0], "us");
        rec.record_value(&format!("{row}_all_us"), best[1], "us");
        rec.record_value(&format!("{row}_speedup"), best[0] / best[1], "x");

        // DLRM's pairwise interaction at the serving mix's widest pass:
        // 8 rows of 9 vectors of 64 (one bottom-MLP output, eight
        // embeddings), the stage alone (`StageTimes::gather_ns`; the
        // two slices and the 100→1 tail a network needs around it are
        // charged elsewhere), ns per input element.
        let mut net = NetworkBuilder::new("interact", 8, 9 * 64, 1, 1, 7);
        let input = net.cursor();
        let bottom = net.slice("bottom", input, 0, 64);
        let embeddings = net.slice("embeddings", input, 64, 8 * 64);
        net.interact("interact", vec![bottom, embeddings]);
        net.fc("tail", 1, false);
        let interact = ProtectedPipeline::compile(&net.build(), &[Scheme::Unprotected]);
        let input = Matrix::random(8, 9 * 64, 8);
        let ns = (0..200)
            .map(|_| interact.infer_timed_into(&input, None, &mut ws).1.gather_ns)
            .min()
            .expect("200 passes");
        rec.record_value(
            "engine/interact_8x9x64_ns_per_elem",
            ns as f64 / (8 * 9 * 64) as f64,
            "ns/elem",
        );
    }
    // The precision-substrate suite: clean GEMM throughput with
    // operands stored in each dtype (the activation decode rides in
    // per-run staging, the weight widening in the microkernel's B load,
    // so these rows price both), then per-dtype fault
    // campaigns — detection coverage and protected-vs-clean overhead
    // under each family's strongest scheme, the cross-precision
    // comparison the paper never measured.
    {
        use aiga_faults::Campaign;
        use aiga_gpu::engine::Dtype;

        let size = 128usize;
        for dtype in Dtype::ALL {
            let a = Matrix::random_dtype(size, size, 1, dtype);
            let b = PackedWeights::pack(&Matrix::random_dtype(size, size, 2, dtype));
            let mut ws = Workspace::new();
            gemm_into(&a, &b, TileScheme::NONE, &[], Dest::None, &mut ws); // warm
            let med = rec
                .bench(&format!("engine/gemm_{size}_clean_{dtype}"), || {
                    black_box(gemm_into(
                        &a,
                        &b,
                        TileScheme::NONE,
                        &[],
                        Dest::None,
                        &mut ws,
                    ));
                })
                .median_ns;
            rec.record_value(
                &format!("engine/gemm_{size}_clean_{dtype}_gflops"),
                gflops_of(size, med),
                "gflop/s",
            );
            for (path, [ns]) in
                fastest_interleaved(24, Members::One, &a, &[(TileScheme::NONE, b)], &mut ws)
            {
                rec.record_ns(
                    &format!("engine/gemm_{size}_clean_{dtype}_{}", path.as_str()),
                    ns,
                );
            }
        }

        let campaign_shape = GemmShape::square(48);
        let trials = 200;
        for dtype in [Dtype::F16, Dtype::Bf16, Dtype::Fp8E4M3] {
            for (name, scheme) in [
                ("one_sided", Scheme::ThreadLevelOneSided),
                ("two_sided", Scheme::ThreadLevelTwoSided),
                ("replication_traditional", Scheme::ReplicationTraditional),
                ("global_abft", Scheme::GlobalAbft),
            ] {
                let c = Campaign::new_dtype(campaign_shape, scheme, 9, dtype);
                let stats = c.run_bit_flips(trials, 10);
                rec.record_value(
                    &format!("campaign/{dtype}_{name}_detection_rate"),
                    stats.detection_rate(),
                    "fraction",
                );
                rec.record_value(
                    &format!("campaign/{dtype}_{name}_sdc_rate"),
                    stats.sdc_rate(),
                    "fraction",
                );
                // Overhead: protected pass vs the unprotected engine on
                // the same operands (both through warm workspaces).
                let protected = aiga_core::protected::ProtectedGemm::new(
                    Matrix::random_dtype(48, 48, 9, dtype),
                    Matrix::random_dtype(48, 48, 10, dtype),
                    scheme,
                );
                let baseline = aiga_core::protected::ProtectedGemm::new(
                    Matrix::random_dtype(48, 48, 9, dtype),
                    Matrix::random_dtype(48, 48, 10, dtype),
                    Scheme::Unprotected,
                );
                let mut ws = Workspace::new();
                protected.run_into(&[], &mut ws); // warm
                let prot_ns = rec
                    .bench(&format!("campaign/{dtype}_{name}_protected_pass"), || {
                        black_box(protected.run_into(&[], &mut ws));
                    })
                    .median_ns;
                baseline.run_into(&[], &mut ws); // warm
                let base_ns = rec
                    .bench(&format!("campaign/{dtype}_{name}_unprotected_pass"), || {
                        black_box(baseline.run_into(&[], &mut ws));
                    })
                    .median_ns;
                rec.record_value(
                    &format!("campaign/{dtype}_{name}_overhead"),
                    prot_ns / base_ns,
                    "x",
                );
            }
        }
    }
    rec.write().expect("write BENCH_engine.json");
    rec.enforce_gates();

    let dev = DeviceSpec::t4();
    let calib = Calibration::default();
    let p = KernelProfile::baseline(GemmShape::square(2048), &dev, &calib);
    bench("timing/estimate_2048_cubed", || {
        black_box(estimate(&p, &dev, &calib));
    });
}
