//! Scoped-thread parallel map.
//!
//! Replaces the `items.par_iter().map(f).collect()` idiom with standard
//! library scoped threads. Work is split into one contiguous chunk per
//! worker — the workloads in this repo (simulated threadblocks, fault
//! trials) are uniform enough that static chunking balances well.

std::thread_local! {
    /// True while the current thread is a `par_map` worker; nested
    /// `par_map` calls then run sequentially instead of multiplying
    /// thread counts (e.g. a parallel fault campaign whose every trial
    /// runs the block-parallel GEMM engine).
    static INSIDE_PAR_MAP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Cached `available_parallelism`: the stdlib call re-reads cgroup/proc
/// state (and allocates) on every invocation, which would put heap
/// traffic on zero-allocation hot paths that merely *ask* about
/// parallelism before staying sequential.
fn hardware_parallelism() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// How many workers a parallel region over `items` units of work would
/// fan out to *from the current thread*: the hardware parallelism capped
/// by the item count, or 1 when the caller is itself a parallel worker
/// (nested regions stay sequential). Callers that manage their own
/// scoped threads (e.g. the block-parallel GEMM engine) use this to make
/// the same sequential-fallback decision as [`par_map`].
pub fn effective_workers(items: usize) -> usize {
    if INSIDE_PAR_MAP.with(|flag| flag.get()) {
        return 1;
    }
    hardware_parallelism().min(items)
}

/// Runs `f` with the current thread marked as a parallel worker, so any
/// nested [`par_map`]/[`effective_workers`] call inside it stays
/// sequential. For callers that run their own threads — scoped ones, or
/// a server's long-lived workers — but want them to obey the same
/// no-nested-fan-out discipline. The mark nests: leaving an inner call
/// leaves the outer one's in place.
pub fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    let was = INSIDE_PAR_MAP.with(|flag| flag.replace(true));
    let out = f();
    INSIDE_PAR_MAP.with(|flag| flag.set(was));
    out
}

/// Maps `f` over `items` in parallel, preserving order.
///
/// Falls back to a sequential map when the slice is small, only one
/// hardware thread is available, or the caller is itself a `par_map`
/// worker (no nested fan-out).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, || (), |(), item| f(item))
}

/// Like [`par_map`], but each worker first builds private mutable state
/// with `init` and threads it through every item of its chunk.
///
/// This is the workspace-reuse primitive: a fault campaign passes
/// `init = Workspace::new` and every worker serves all of its trials
/// from one warm workspace, so the per-trial hot path stops allocating.
/// On the sequential fallback a single state instance covers the whole
/// slice.
pub fn par_map_with<T, R, S, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = hardware_parallelism().min(items.len());
    if workers <= 1 || INSIDE_PAR_MAP.with(|flag| flag.get()) {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let (init, f) = (&init, &f);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    INSIDE_PAR_MAP.with(|flag| flag.set(true));
                    let mut state = init();
                    part.iter()
                        .map(|item| f(&mut state, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_with_reuses_state_within_a_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..256).collect();
        let out = par_map_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new() // per-worker scratch
            },
            |scratch, &x| {
                scratch.push(x); // state persists across a worker's items
                x
            },
        );
        assert_eq!(out, items);
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(items.len());
        // One state per worker (or exactly one on the sequential path) —
        // never one per item.
        assert!(inits.load(Ordering::Relaxed) <= workers);
        assert!(inits.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn effective_workers_caps_by_items_and_nesting() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(effective_workers(1), 1);
        assert_eq!(effective_workers(1024), cores.min(1024));
        // Inside a worker context the answer is always 1.
        let nested = as_worker(|| effective_workers(1024));
        assert_eq!(nested, 1);
        // ...also after an inner worker context has come and gone.
        let after_inner = as_worker(|| {
            as_worker(|| ());
            effective_workers(1024)
        });
        assert_eq!(after_inner, 1);
        // The marker is scoped to the closure.
        assert_eq!(effective_workers(1024), cores.min(1024));
    }

    #[test]
    fn handles_empty_and_singleton() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn nested_calls_do_not_multiply_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spawned = AtomicUsize::new(0);
        let outer: Vec<u32> = (0..8).collect();
        let out = par_map(&outer, |&x| {
            // The inner call must take the sequential path.
            let inner: Vec<u32> = (0..64).collect();
            let inner_sum: u32 = par_map(&inner, |&y| {
                spawned.fetch_add(1, Ordering::Relaxed);
                y
            })
            .into_iter()
            .sum();
            x + inner_sum
        });
        assert_eq!(out.len(), 8);
        assert_eq!(spawned.load(Ordering::Relaxed), 8 * 64);
        // After returning to the root thread, parallelism is available
        // again (the flag only marks worker threads).
        assert!(!super::INSIDE_PAR_MAP.with(|f| f.get()));
    }

    #[test]
    fn actually_runs_concurrently_when_possible() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        par_map(&items, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        // On a multicore machine at least two workers overlap; on a
        // single-core runner the sequential path is exercised instead.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores > 1 {
            assert!(peak.load(Ordering::SeqCst) > 1);
        }
    }
}
