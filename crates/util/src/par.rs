//! Parallel map over slices, on the process's fork-join team.
//!
//! Replaces the `items.par_iter().map(f).collect()` idiom. The slice is
//! cut into a few contiguous chunks per team member and the chunks are
//! the tasks of one [`crate::team`] region — so a map obeys the team's
//! inline rule (nested, under [`as_worker`], team busy: sequential on
//! the caller) and starts no thread of its own.

// The nesting mark lives with the team; `super::INSIDE_PAR_MAP` is what
// this module's tests read.
#[cfg(test)]
use crate::team::INSIDE_PAR_MAP;
pub use crate::team::{as_worker, effective_workers};

/// Chunks per member: enough that a member that joins the region late
/// (a parked worker takes ~100 µs to wake) leaves the others something
/// to take, few enough that a chunk amortises its result vector.
const CHUNKS_PER_MEMBER: usize = 4;

/// Maps `f` over `items` in parallel, preserving order.
///
/// Falls back to a sequential map when the slice is small, only one
/// hardware thread is available, or the caller is itself a parallel
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
/// with `init` and threads it through every item it maps.
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
    // A member's state is built and used on its thread and dropped on
    // the caller's.
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let members = effective_workers(items.len());
    if members <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    /// One member's state (built with its first chunk) and the chunks it
    /// mapped, by chunk index.
    struct Member<S, R> {
        state: Option<S>,
        mapped: Vec<(usize, Vec<R>)>,
    }
    let mut team: Vec<Member<S, R>> = (0..members)
        .map(|_| Member {
            state: None,
            mapped: Vec::new(),
        })
        .collect();
    let chunk = items.len().div_ceil(members * CHUNKS_PER_MEMBER);
    crate::team::run_with(&mut team, items.len().div_ceil(chunk), &|member, at| {
        let Member { state, mapped } = member;
        let state = state.get_or_insert_with(&init);
        let part = &items[at * chunk..items.len().min((at + 1) * chunk)];
        mapped.push((at, part.iter().map(|item| f(state, item)).collect()));
    });
    let mut mapped: Vec<_> = team.into_iter().flat_map(|m| m.mapped).collect();
    mapped.sort_unstable_by_key(|&(at, _)| at);
    mapped.into_iter().flat_map(|(_, part)| part).collect()
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
