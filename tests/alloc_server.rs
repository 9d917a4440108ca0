//! Counting-allocator regression net for the *server* hot path.
//!
//! `tests/alloc_steadystate.rs` pins the single-caller serving path
//! (engine zero-alloc, `Session::serve` allocating only the report).
//! This file pins the concurrent front-end on top of it: after warmup,
//! one `submit → worker pass → wait` round trip allocates only the
//! queue-handoff constants — the input copy, the handle slot, and the
//! report — a small count that is *stable from request to request*,
//! independent of how many requests have been served.
//!
//! The file holds exactly one `#[test]` so nothing races the counter;
//! the server runs one worker, and the measured section spans the full
//! round trip (the worker's allocations land inside the window because
//! `wait()` joins the request's completion).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

#[test]
fn steady_state_server_round_trip_allocates_a_small_stable_constant() {
    use aiga::prelude::*;

    let session = Session::builder(
        Planner::new(DeviceSpec::t4()),
        "dlrm-mlp-bottom",
        zoo::dlrm_mlp_bottom,
    )
    .buckets([8])
    .build();
    let server = Server::builder(session)
        .workers(1)
        .queue_capacity(8)
        .build();
    let client = server.client();
    let request = Matrix::random(8, 13, 42);

    // Warmup: build the bucket plan, warm the session workspace pool,
    // ratchet the queue and per-worker buffers to their high-water mark.
    for _ in 0..5 {
        client.submit(&request).unwrap().wait().unwrap();
    }

    let round = || {
        let reply = client.submit(&request).unwrap().wait().unwrap();
        std::hint::black_box(reply);
    };
    let first = allocs_during(round);
    let second = allocs_during(round);
    assert_eq!(
        first, second,
        "steady-state server round-trip allocation count must be stable"
    );
    assert!(
        first <= 16,
        "server round trip should allocate only the handoff constants \
         (input copy, handle, report) — saw {first}"
    );

    let stats = server.shutdown();
    assert_eq!(stats.completed, 7);
    assert_eq!(stats.failed + stats.rejected, 0);
}
