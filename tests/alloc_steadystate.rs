//! Counting-allocator regression net for the zero-allocation execution
//! path.
//!
//! A custom `#[global_allocator]` counts every `alloc`/`realloc` in the
//! process — the calling thread's and the fork-join team's workers'
//! alike. This file holds exactly one `#[test]` so nothing else races
//! the counter.
//!
//! Pinned guarantees, after warmup:
//!
//! 1. the engine hot path (`BoundGemm::run_into` through a warm
//!    `Workspace`) performs **exactly zero** heap allocations, for the
//!    fused fast path, global ABFT's verified path, and the hooked
//!    thread-level schemes;
//! 2. steady-state `Session::serve` allocates only the returned
//!    report's output vector — a small constant, identical from
//!    request to request, independent of model depth or GEMM size;
//!
//! 3. the *conv* engine path — `im2col_into` lowering into the
//!    workspace plus the protected GEMM — performs exactly zero heap
//!    allocations once warm, and steady-state compiled-model serving
//!    (conv stages, pooling/concat/residual epilogues, value slots)
//!    stays at the same small report-only constant;
//!
//! 4. problems large enough to fan out (≥ `BLOCK_PAR_MIN_FLOPS`, or
//!    ≥ `BLOCK_PAR_MIN_BYTES` of weight panels) are exactly zero-alloc
//!    once warm too: the per-member stripe scratch
//!    ratchets once and a team region allocates nothing — on a
//!    multicore runner as a real region, and at a forced team width of
//!    three on any runner. Most shapes in sections 1–3 sit below the
//!    threshold and run on the calling thread alone;
//!
//! 5. the *fused* k>1 conv path — the GEMM reading an
//!    `MatrixLayout::Im2col` view of the NCHW activation buffer, no
//!    lowered matrix anywhere — performs exactly zero heap allocations
//!    once warm;
//!
//! 6. a branchy compiled pipeline — SqueezeNet's Fire modules at
//!    32×32, every GEMM below the engine's stripe fan-out threshold —
//!    serves through its stage loop at the usual report-only constant,
//!    stable from pass to pass, with no option set, for a full batch
//!    and for a partial-bucket request alike;
//!
//! 7. the correction path (`run_corrected_into`) stays zero-alloc once
//!    warm across the localizer families;
//!
//! 8. a request's memory scales with the request, not the layer: the
//!    weights are packed once at bind time, so a *cold* workspace
//!    serving a bound 1024×1024 layer at batch 1 allocates well under
//!    1 MiB (it used to grow 8 MiB of B panels of its own), and the
//!    warm pass allocates nothing;
//!
//! 9. the stages between GEMMs keep the contract where they left the
//!    calling thread: a warm SqueezeNet-1.1 pass at 96×96 — every conv's
//!    slot written from inside the engine's tasks, the first pool's
//!    planes spread over the team — and a warm DLRM pass (gather,
//!    interaction through the workspace's scratch) allocate exactly the
//!    report's output vector, on this host's team and at a forced width
//!    of three: the per-member pooling scratch is the workspace's and
//!    ratchets with it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested (a `realloc` counts its whole new size).
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

fn bytes_during(f: impl FnOnce()) -> u64 {
    let before = BYTES.load(Ordering::SeqCst);
    f();
    BYTES.load(Ordering::SeqCst) - before
}

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    use aiga::gpu::engine::{gemm_into, MatrixView};
    use aiga::prelude::*;

    // --- 1. Engine level: every bound kernel's hot path is zero-alloc.
    let a = Matrix::random(48, 56, 11);
    let b = Matrix::random(56, 40, 12);
    for scheme in [
        Scheme::Unprotected,            // plain microkernel
        Scheme::GlobalAbft,             // plain microkernel + checksum verification
        Scheme::ThreadLevelOneSided,    // checksum lanes; opened columns' magnitudes taken lazily
        Scheme::ThreadLevelTwoSided,    // corner chain, B tile sums staged per run
        Scheme::ReplicationSingleAcc,   // shadow tile, sum compare
        Scheme::ReplicationTraditional, // shadow tile, bitwise compare
    ] {
        let bound = scheme.bind(&b);
        let mut ws = Workspace::new();
        bound.run_into(a.view(), &[], Dest::None, &mut ws); // warm the workspace
        let n = allocs_during(|| {
            bound.run_into(a.view(), &[], Dest::None, &mut ws);
        });
        assert_eq!(n, 0, "{scheme}: engine hot path allocated {n} times");
    }

    // The §2.4 multi-checksum extension honors the contract too.
    let multi = Scheme::MultiChecksum(2).bind(&b);
    let mut ws = Workspace::new();
    multi.run_into(a.view(), &[], Dest::None, &mut ws);
    let n = allocs_during(|| {
        multi.run_into(a.view(), &[], Dest::None, &mut ws);
    });
    assert_eq!(n, 0, "multi-checksum hot path allocated {n} times");

    // Raw engine entry under a lane-carrying scheme, same guarantee.
    let one_sided = Scheme::ThreadLevelOneSided.tile_scheme(56);
    let packed = PackedWeights::pack(&b);
    let mut ws = Workspace::new();
    gemm_into(&a, &packed, one_sided, &[], Dest::None, &mut ws);
    let n = allocs_during(|| {
        gemm_into(&a, &packed, one_sided, &[], Dest::None, &mut ws);
    });
    assert_eq!(n, 0, "raw checksum-lane engine path allocated {n} times");

    // --- 2. Serving level: steady-state serve allocates only the
    // returned report (a small constant, stable across requests).
    let session = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([8])
    .build();
    let request = Matrix::random(8, 13, 42);
    for _ in 0..3 {
        session.serve(&request).unwrap(); // build plan, warm the pool
    }
    let first = allocs_during(|| {
        std::hint::black_box(session.serve(&request).unwrap());
    });
    let second = allocs_during(|| {
        std::hint::black_box(session.serve(&request).unwrap());
    });
    assert_eq!(
        first, second,
        "steady-state serve allocation count must be stable"
    );
    assert!(
        first <= 4,
        "steady-state serve should only allocate the report (saw {first})"
    );

    // --- 3. Conv path: im2col lowering + protected GEMM, zero-alloc
    // once the workspace is warm (the satellite guarantee behind
    // compiled-model serving).
    let input = Tensor::random(2, 3, 12, 12, 81);
    let filters = Tensor::random(8, 3, 3, 3, 82);
    let params = ConvParams {
        c_out: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let weights = aiga_nn::conv::filters_to_matrix(&filters);
    for scheme in [Scheme::GlobalAbft, Scheme::ThreadLevelOneSided] {
        let bound = scheme.bind(&weights);
        let mut ws = Workspace::new();
        let conv_pass = |ws: &mut Workspace| {
            im2col_into(&input, params, ws);
            let a = ws.take_lowering();
            bound.run_into(a.view(), &[], Dest::None, ws);
            ws.put_lowering(a);
        };
        conv_pass(&mut ws); // warm the lowering buffer + panels
        let n = allocs_during(|| conv_pass(&mut ws));
        assert_eq!(n, 0, "{scheme}: conv engine path allocated {n} times");
    }

    // Steady-state compiled-model serving (conv stages + pooling +
    // residual epilogues through the session pool) allocates only the
    // returned report, exactly like the MLP path.
    let compiled_session =
        Session::builder_network(Planner::new(DeviceSpec::t4()), "resnet-block", |b| {
            zoo::resnet_block_net(b, 8, 8, 5)
        })
        .buckets([2])
        .build();
    let conv_request = Matrix::random(2, 16 * 8 * 8, 43);
    for _ in 0..3 {
        compiled_session.serve(&conv_request).unwrap(); // compile + warm
    }
    let first = allocs_during(|| {
        std::hint::black_box(compiled_session.serve(&conv_request).unwrap());
    });
    let second = allocs_during(|| {
        std::hint::black_box(compiled_session.serve(&conv_request).unwrap());
    });
    assert_eq!(
        first, second,
        "steady-state compiled serve allocation count must be stable"
    );
    assert!(
        first <= 4,
        "steady-state compiled serve should only allocate the report (saw {first})"
    );

    // A campaign-style loop over a warm ProtectedGemm is zero-alloc too.
    let gemm = ProtectedGemm::random(GemmShape::new(32, 32, 32), Scheme::GlobalAbft, 3);
    let fault = FaultPlan {
        row: 1,
        col: 1,
        after_step: u64::MAX,
        kind: FaultKind::AddValue(500.0),
    };
    let mut ws = Workspace::new();
    gemm.run_into(&[fault], &mut ws);
    let n = allocs_during(|| {
        for _ in 0..5 {
            std::hint::black_box(gemm.run_into(&[fault], &mut ws));
        }
    });
    assert_eq!(n, 0, "warm campaign trials allocated {n} times");

    // --- 4. Fanned-out regime: 256³ is four stripe tasks on two
    // members and sixteen block tasks on three, 169×1000×512 is the
    // restaging shape. The warm run starts the team and ratchets
    // the per-member scratch; after it a run allocates nothing, on this
    // host's team and at a forced width of three.
    {
        use aiga_gpu::engine::TileScheme;
        for (m, n, k) in [(256usize, 256usize, 256usize), (169, 1000, 512)] {
            let big_a = Matrix::random(m, k, 61);
            let big_b = PackedWeights::pack(&Matrix::random(k, n, 62));
            for width in [None, Some(3)] {
                let mut ws = Workspace::new();
                let mut run = || {
                    std::hint::black_box(gemm_into(
                        &big_a,
                        &big_b,
                        TileScheme::NONE,
                        &[],
                        Dest::None,
                        &mut ws,
                    ));
                };
                let mut pinned = || {
                    run();
                    // Twice: steady state, not a lucky schedule.
                    let allocs = allocs_during(|| (0..2).for_each(|_| run()));
                    assert_eq!(
                        allocs, 0,
                        "{m}x{n}x{k} fanned out ({width:?}) allocated {allocs} times"
                    );
                };
                match width {
                    None => pinned(),
                    Some(width) => aiga::util::team::with_width(width, pinned),
                }
            }
        }
    }

    // --- 5. Fused k>1 conv path: the engine reads activations through
    // an `Im2col` view of the NCHW buffer — the lowered matrix never
    // exists, and a warm pass is exactly zero-alloc (the view wraps and
    // returns the same buffer).
    {
        let input = Tensor::random(2, 3, 12, 12, 83);
        let params = ConvParams {
            c_out: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let filters = Tensor::random(8, 3, 3, 3, 84);
        let weights = aiga_nn::conv::filters_to_matrix(&filters);
        let view = params.im2col_view(3, 12, 12);
        for scheme in [Scheme::GlobalAbft, Scheme::ThreadLevelOneSided] {
            let bound = scheme.bind(&weights);
            let mut ws = Workspace::new();
            let a = MatrixView::im2col_lowered(2, view, &input.data, Dtype::F16);
            let fused_pass = |ws: &mut Workspace| {
                bound.run_into(a, &[], Dest::None, ws);
            };
            fused_pass(&mut ws); // warm the panels
            let n = allocs_during(|| fused_pass(&mut ws));
            assert_eq!(n, 0, "{scheme}: fused conv path allocated {n} times");
        }
    }

    // --- 6. A branchy graph through the stage loop: SqueezeNet's Fire
    // modules run one stage at a time in the workspace's one child, so
    // the default pipeline pins the report-only constant — for a full
    // batch and for a partial request, which runs as its own rows out
    // of the caller's matrix (nothing is staged or padded for it).
    for (batch, rows) in [(1, 1), (4, 3)] {
        let net = zoo::squeezenet_net(batch, 32, 32, 3);
        let schemes = vec![Scheme::ThreadLevelOneSided; net.gemm_count()];
        let request = Matrix::random(rows, net.input_features(), 44);
        let pipeline = aiga_core::ProtectedPipeline::compile(&net, &schemes);
        let mut ws = Workspace::new();
        for _ in 0..3 {
            pipeline.infer_into(&request, None, &mut ws);
        }
        let first = allocs_during(|| {
            std::hint::black_box(pipeline.infer_into(&request, None, &mut ws));
        });
        let second = allocs_during(|| {
            std::hint::black_box(pipeline.infer_into(&request, None, &mut ws));
        });
        assert_eq!(first, second, "compiled infer must be stable");
        assert!(
            first <= 4,
            "a warm branchy pass of {rows}/{batch} rows should only allocate the report (saw {first})"
        );
    }

    // --- 7. Correction path: localize + targeted recompute + re-verify
    // (`run_corrected_into`) stays zero-alloc once warm, across all
    // three localizer families (column, lane, and row).
    for scheme in [
        Scheme::GlobalAbft,             // column localizer
        Scheme::ThreadLevelOneSided,    // lane localizer
        Scheme::ReplicationTraditional, // lane localizer, majority vote
        Scheme::MultiChecksum(2),       // row localizer (weighted ratio)
    ] {
        let gemm = ProtectedGemm::random(GemmShape::new(48, 40, 56), scheme, 11);
        let fault = FaultPlan {
            row: 3,
            col: 5,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(300.0),
        };
        let mut ws = Workspace::new();
        let verdict = gemm.run_corrected_into(&[fault], &mut ws); // warm
        assert!(verdict.is_corrected(), "{scheme}: {verdict:?}");
        let n = allocs_during(|| {
            for _ in 0..5 {
                std::hint::black_box(gemm.run_corrected_into(&[fault], &mut ws));
            }
        });
        assert_eq!(n, 0, "{scheme}: warm correction path allocated {n} times");
    }

    // --- 8. A request pays for its own rows: the bound kernel holds the
    // layer's packed panels, so the first pass through a cold workspace
    // allocates for one strip of activations and one output row — not
    // for 8 MiB of decoded, transposed and re-packed weights — and the
    // second pass allocates nothing.
    {
        let weights = Matrix::random(1024, 1024, 91);
        let request = Matrix::random(1, 1024, 92);
        for scheme in [
            Scheme::Unprotected,
            Scheme::GlobalAbft,
            Scheme::ThreadLevelOneSided,
            Scheme::ThreadLevelTwoSided,
        ] {
            let bound = scheme.bind(&weights);
            let mut ws = Workspace::new();
            let cold = bytes_during(|| {
                bound.run_into(request.view(), &[], Dest::None, &mut ws);
            });
            assert!(
                cold < 1 << 20,
                "{scheme}: a cold workspace allocated {cold} bytes for a batch-1 request"
            );
            let warm = allocs_during(|| {
                bound.run_into(request.view(), &[], Dest::None, &mut ws);
            });
            assert_eq!(
                warm, 0,
                "{scheme}: warm batch-1 pass allocated {warm} times"
            );
        }
    }

    // --- 9. Between the GEMMs, off the calling thread: the write-back
    // in the engine's tasks, the first pool (64 planes of 47×47: past
    // the size a pooling stage keeps to its caller) on the team, the
    // interaction out of the workspace's scratch. The warm-up pass
    // starts the team and ratchets every member's scratch; after it a
    // pass allocates its report's output vector and nothing else.
    {
        let cnn = zoo::squeezenet_v11_net(1, 96, 96, 7);
        let cnn_request = Matrix::random(1, cnn.input_features(), 45);
        let dlrm = zoo::dlrm_net(8, 8, 1000, 64, 11);
        let mut dlrm_request = Matrix::random(8, dlrm.input_features(), 46);
        for (r, c) in (0..8).flat_map(|r| (13..21).map(move |c| (r, c))) {
            dlrm_request.set(r, c, aiga::fp16::F16::from_f32((r * 131 + c * 17) as f32));
        }
        for (net, request) in [(cnn, cnn_request), (dlrm, dlrm_request)] {
            let schemes = vec![Scheme::ThreadLevelOneSided; net.gemm_count()];
            let pipeline = aiga_core::ProtectedPipeline::compile(&net, &schemes);
            for width in [None, Some(3)] {
                let mut ws = Workspace::new();
                let mut pass = || {
                    std::hint::black_box(pipeline.infer_into(&request, None, &mut ws));
                };
                let mut pinned = || {
                    pass();
                    // Twice: steady state, not a lucky schedule.
                    let allocs = allocs_during(|| (0..2).for_each(|_| pass()));
                    assert_eq!(
                        allocs, 2,
                        "two warm {} passes ({width:?}) allocated {allocs} times",
                        net.name
                    );
                };
                match width {
                    None => pinned(),
                    Some(width) => aiga::util::team::with_width(width, pinned),
                }
            }
        }
    }
}
