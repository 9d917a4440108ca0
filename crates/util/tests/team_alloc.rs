//! A fork-join region allocates nothing: this file's one test owns the
//! process, so the counting allocator sees the caller and the team's
//! workers and nothing else.

use aiga_util::team;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` unchanged.
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

#[test]
fn a_region_performs_no_heap_allocation() {
    let mut per_member = [0u64; 3];
    let mut add = || team::run_with(&mut per_member, 8, &|mine, task| *mine += task as u64);
    team::with_width(3, || {
        // Starts the workers, then lets them park (they poll for 1 ms):
        // a parked one is woken without allocating.
        add();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let before = ALLOCS.load(Ordering::SeqCst);
        (0..2000).for_each(|_| add());
        assert_eq!(ALLOCS.load(Ordering::SeqCst) - before, 0);
    });
    assert_eq!(per_member.iter().sum::<u64>(), 2001 * 28);
}
