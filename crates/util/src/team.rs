//! The process-wide fork-join team: the one owner of compute threads
//! below the serving front-end.
//!
//! A *region* is `tasks` calls of one closure, spread over the team's
//! *members*: the calling thread (member 0) and up to `hardware
//! parallelism − 1` long-lived worker threads that wait between
//! regions. [`run_with`] opens a region, lends each member its own entry
//! of a caller-owned slice, and returns once every task has run and
//! every member has left it. A region allocates nothing, and a task's
//! panic resurfaces on the caller after the region has drained.
//!
//! # Who runs which task
//!
//! Member `i` of `members` owns the contiguous range of tasks
//! `[i·count/members, (i+1)·count/members)` and claims it from the
//! front, one task at a time. A member whose range is empty steals
//! single tasks from the back of the fullest other range, until every
//! range is empty. Each range is one packed front/back word, moved by
//! compare-and-swap from either end, so a task is claimed once. This is
//! the one claiming rule of every region (engine stripes and blocks,
//! pooling planes, `par_map`). Its point is locality: consecutive
//! regions over the same rows give a member the same rows, so the
//! member that wrote rows `[a, b)` of an activation usually reads them
//! next, from its own cache. A counter shared by all members deals
//! neighbouring tasks to alternating members instead, and each then
//! reads lines the other core wrote (SqueezeNet-224: A staging 5.0 and
//! write-back 3.9 member-ms a pass on two members under the counter,
//! 3.0 and 2.1–2.7 on one). Stealing from the back keeps a slowed or
//! late member from holding the region: the others take its tail.
//!
//! # The inline rule
//!
//! There is one team and it runs one region at a time. A region runs
//! *inline* — every task on the caller, as member 0, touching no shared
//! state — when it could not use a second member anyway:
//!
//! - it is opened from inside a task (nested fan-out);
//! - the caller runs under [`as_worker`] (its owner already spread work
//!   across cores: a multi-worker server, a campaign under `par_map`);
//! - another thread holds the team (no queue: the other region owns the
//!   cores, and waiting for it would serialise the two callers);
//! - it has one task, or the host has one core.
//!
//! So nothing above this module decides *whether* to use the team; it
//! says how much work it has, and the rule decides.
//!
//! # Waiting
//!
//! Workers are started on the first region that wants them and never
//! exit (the process ends with them waiting). A waiter — a worker
//! between regions, or the caller after its own last task — polls a few
//! microseconds without leaving the core and then with `yield_now`
//! between polls; a worker that has seen nothing for `SPIN` (1 ms) parks
//! and costs the next region one wake-up. The yield is for the case the
//! host cannot rule out, a waiter sharing a core with the thread it
//! waits for: a busy waiter there takes whole timeslices from the one
//! thread that has work (the issue's prototype: a SqueezeNet pass 64 ms
//! instead of 19 for the first 0.75 s of a process), a yielding one
//! hands the core back. It does not end the sharing — a thread that only
//! polls is not migrated — so a new worker also *sleeps* once before
//! its first poll (see `worker_loop`), which is what makes the first
//! region of a process split evenly (`BENCH_engine.json`
//! `team/cold_start_pass_x`).

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

/// How long a worker polls for the next region before it parks. Waking
/// a parked worker costs the next region 55–95 µs during which the
/// caller works alone (`BENCH_engine.json` `team/fork_join_parked_us`;
/// `team/fork_join_hot_us` is 1.1–1.6), so the bound is set by the
/// stretches a caller spends *between* the regions of one request: the
/// longest on the benchmark's models is a CNN stem's write-back and
/// pooling, 0.6–0.9 ms. A worker therefore parks between requests, not between
/// the layers of one (SqueezeNet-224, back-to-back passes: 15.2 ms at
/// 200 µs, 14.2 ms at 1 ms), and polling is `yield_now` after the first
/// few microseconds, so what it costs a busy host is a runnable thread
/// that gives way, not a core.
const SPIN: Duration = Duration::from_millis(1);

/// A new worker's first act (see `worker_loop`).
const PLACEMENT_SLEEP: Duration = Duration::from_micros(200);

/// Polls without leaving the core before the first `yield_now`.
const BUSY_POLLS: u32 = 256;

std::thread_local! {
    /// True while the current thread is a parallel worker: a team
    /// member inside a region, or a thread under [`as_worker`]. Regions
    /// opened from it run inline (e.g. a parallel fault campaign whose
    /// every trial runs the GEMM engine).
    pub(crate) static INSIDE_PAR_MAP: Cell<bool> = const { Cell::new(false) };
    /// [`with_width`]'s override (0 = none).
    static FORCED_WIDTH: Cell<usize> = const { Cell::new(0) };
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

/// How many members a region opened *from the current thread* can have:
/// the hardware parallelism, or 1 where the inline rule already applies
/// (inside a task, under [`as_worker`]). Callers size per-member state
/// by this.
pub fn width() -> usize {
    if INSIDE_PAR_MAP.get() {
        return 1;
    }
    match FORCED_WIDTH.get() {
        0 => hardware_parallelism(),
        forced => forced,
    }
}

/// How many workers a parallel region over `items` units of work would
/// fan out to *from the current thread*: [`width`] capped by the item
/// count — 1 when the caller is itself a parallel worker (nested
/// regions stay sequential).
pub fn effective_workers(items: usize) -> usize {
    width().min(items)
}

/// Runs `f` with the current thread marked as a parallel worker, so any
/// region opened inside it runs inline ([`effective_workers`] answers
/// 1). For callers that run their own threads — a server's long-lived
/// workers — but want them to obey the same no-nested-fan-out
/// discipline. The mark nests: leaving an inner call leaves the outer
/// one's in place.
pub fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    let was = INSIDE_PAR_MAP.replace(true);
    let out = f();
    INSIDE_PAR_MAP.set(was);
    out
}

/// Test seam: regions opened by `f` on this thread have exactly `width`
/// members (where they have that many tasks), whatever the host — the
/// team grows to fit, so a single-core runner exercises a fanned-out
/// region — and *wait* for the team instead of running inline while
/// another thread holds it, so what a test asserts about a width is
/// what ran.
#[doc(hidden)]
pub fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_WIDTH.set(self.0);
        }
    }
    let _restore = Restore(FORCED_WIDTH.replace(width.max(1)));
    f()
}

/// One region's tasks: `f(member, task)`.
type Tasks<'a> = dyn Fn(usize, usize) + Sync + 'a;

/// What the members of the open region run.
#[derive(Clone, Copy)]
struct Job {
    tasks: *const Tasks<'static>,
    /// The members' ranges, `members` of them (`Lead::ranges`).
    ranges: *const Range,
    members: usize,
}

/// A value on its own cache lines, so the range words the members
/// claim from and the region word every waiter polls do not share one.
#[repr(align(128))]
struct Padded<T>(T);

/// One member's unclaimed tasks `[front, back)`, packed into one word
/// (front in the low half) so the owner's claim at the front and a
/// thief's at the back are each one compare-and-swap of the same word.
/// `front` only rises and `back` only falls, so no value of the word
/// repeats within a region.
type Range = Padded<AtomicU64>;

fn pack(front: usize, back: usize) -> u64 {
    front as u64 | (back as u64) << 32
}

fn unpack(word: u64) -> (usize, usize) {
    ((word & u64::from(u32::MAX)) as usize, (word >> 32) as usize)
}

/// Tasks left in a range word.
fn left(word: u64) -> usize {
    let (front, back) = unpack(word);
    back.saturating_sub(front)
}

/// Claims the next task at the front of `range` (`None` once empty).
fn claim_front(range: &Range) -> Option<usize> {
    // Relaxed: the words only hand out indices; what a task reads was
    // published by the `open` store, which also published the words.
    let mut word = range.0.load(Ordering::Relaxed);
    loop {
        let (front, back) = unpack(word);
        if front >= back {
            return None;
        }
        match range.0.compare_exchange_weak(
            word,
            pack(front + 1, back),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return Some(front),
            Err(now) => word = now,
        }
    }
}

/// Steals the last task of the fullest range in `ranges` (`None` once
/// every range is empty).
fn steal(ranges: &[Range]) -> Option<usize> {
    loop {
        let (victim, word) = ranges
            .iter()
            .map(|range| (range, range.0.load(Ordering::Relaxed)))
            .max_by_key(|&(_, word)| left(word))?;
        if left(word) == 0 {
            return None;
        }
        let (front, back) = unpack(word);
        let stolen = pack(front, back - 1);
        let swapped =
            victim
                .0
                .compare_exchange_weak(word, stolen, Ordering::Relaxed, Ordering::Relaxed);
        if swapped.is_ok() {
            return Some(back - 1);
        }
    }
}

/// One worker thread, as the team's holder sees it.
struct Worker {
    thread: std::thread::Thread,
    /// Set by the worker before it parks; the holder unparks whom it
    /// finds set after opening a region.
    parked: &'static AtomicBool,
}

/// What only the thread holding the team touches.
struct Lead {
    workers: Vec<Worker>,
    /// One range per member (the caller's first), read by the members
    /// of the open region through its job; resized only between regions.
    ranges: Vec<Range>,
    /// Regions opened so far; a region's number is never 0.
    regions: u64,
}

struct Team {
    lead: Mutex<Lead>,
    /// The open region's number, 0 between regions.
    open: Padded<AtomicU64>,
    /// Workers inside the open region (or checking whether it still is).
    inside: Padded<AtomicUsize>,
    /// The open region's job (`None` until the first region).
    job: UnsafeCell<Option<Job>>,
    /// The first panic a worker's task raised in the open region.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    panicked: AtomicBool,
    /// Worker threads that have started running.
    started: AtomicUsize,
}

// SAFETY: every field but `job` is `Sync` by itself. `job` (and the
// ranges it points to) is read only by a worker that raised `inside`
// and *then* found `open` still at the region it read it for (see
// `worker_loop`), and the holder's close stores `open = 0` and then
// waits for `inside` to drain. It is written (and `Lead::ranges`
// resized) only by the thread holding `lead`, between that wait and the
// next `open` store: every worker that passed the check has left, and
// none passes it again before it sees the store that follows the write.
unsafe impl Sync for Team {}

static TEAM: Team = Team {
    lead: Mutex::new(Lead {
        workers: Vec::new(),
        ranges: Vec::new(),
        regions: 0,
    }),
    open: Padded(AtomicU64::new(0)),
    inside: Padded(AtomicUsize::new(0)),
    job: UnsafeCell::new(None),
    panic: Mutex::new(None),
    panicked: AtomicBool::new(false),
    started: AtomicUsize::new(0),
};

/// Polls `ready` until it yields: [`BUSY_POLLS`] times back to back,
/// then with `yield_now` between polls (so a waiter sharing a core with
/// the thread it waits for hands the core over). After [`SPIN`] it
/// returns `None` if `give_up`, else keeps yielding.
fn poll<T>(give_up: bool, mut ready: impl FnMut() -> Option<T>) -> Option<T> {
    for _ in 0..BUSY_POLLS {
        if let Some(v) = ready() {
            return Some(v);
        }
        std::hint::spin_loop();
    }
    let start = Instant::now();
    loop {
        if let Some(v) = ready() {
            return Some(v);
        }
        if give_up && start.elapsed() >= SPIN {
            return None;
        }
        std::thread::yield_now();
    }
}

/// Runs `member`'s range of the open region from the front, then
/// steals from the back of the others' until every range is empty.
fn work(member: usize, job: Job) {
    // SAFETY: `job` is the open region's (see `Team`'s `Sync` note), so
    // the closure and the ranges outlive this call: `run_on` does not
    // return, nor the ranges move, before every member has left.
    let (tasks, ranges) = unsafe {
        (
            &*job.tasks,
            std::slice::from_raw_parts(job.ranges, job.members),
        )
    };
    while let Some(task) = claim_front(&ranges[member]) {
        tasks(member, task);
    }
    while let Some(task) = steal(ranges) {
        tasks(member, task);
    }
}

/// A worker thread's life: wait for a region, join it if it has a seat
/// for this member, leave, wait again.
fn worker_loop(member: usize, parked: &'static AtomicBool) {
    INSIDE_PAR_MAP.set(true);
    // Up: the thread's start-up allocations are behind it (see `grow`).
    TEAM.started.fetch_add(1, Ordering::SeqCst);
    // A new thread starts on its spawner's core, and polling there (the
    // yields below included) gives the scheduler no reason to move it:
    // measured here, the worker shared the caller's core for the first
    // 0.8 s of the process. A timed sleep makes its first run a wake-up,
    // which is placed on an idle core.
    std::thread::sleep(PLACEMENT_SLEEP);
    // The last region this worker joined or passed on.
    let mut done = 0u64;
    loop {
        let fresh = || {
            let region = TEAM.open.0.load(Ordering::SeqCst);
            (region != 0 && region != done).then_some(region)
        };
        let Some(region) = poll(true, fresh) else {
            // Dekker with `run_on`: it stores `open` and then loads
            // `parked`; this stores `parked` and then loads `open`. One
            // of the two sees the other's store, so either the region is
            // found here or the holder unparks (a stale unpark only
            // makes the next `park` return early, into another poll).
            parked.store(true, Ordering::SeqCst);
            if fresh().is_none() {
                std::thread::park();
            }
            parked.store(false, Ordering::SeqCst);
            continue;
        };
        done = region;
        // Enter, then check the region is still the open one: the
        // holder closes (`open = 0`) before it waits for `inside` to
        // drain, so in the total order of these SeqCst operations either
        // the close comes first and the check fails, or the holder's
        // wait sees this increment.
        TEAM.inside.0.fetch_add(1, Ordering::SeqCst);
        if TEAM.open.0.load(Ordering::SeqCst) == region {
            // SAFETY: inside the open region (above), so the job is its.
            let job = unsafe { *TEAM.job.get() }.expect("an open region has a job");
            if member < job.members {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(member, job))) {
                    let mut first = TEAM.panic.lock().unwrap_or_else(|e| e.into_inner());
                    first.get_or_insert(payload);
                    TEAM.panicked.store(true, Ordering::SeqCst);
                }
            }
        }
        // Publishes this member's task results to the holder's wait.
        TEAM.inside.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Lead {
    /// Starts workers until there are `want` of them, and keeps a range
    /// for each member.
    fn grow(&mut self, want: usize) {
        if self.ranges.len() < want + 1 {
            self.ranges
                .resize_with(want + 1, || Padded(AtomicU64::new(0)));
        }
        while self.workers.len() < want {
            let member = self.workers.len() + 1;
            let parked: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
            // Never joined: workers wait for regions until the process
            // exits, and a panic inside a task is caught in the loop.
            let handle = std::thread::Builder::new()
                .name(format!("aiga-team-{member}"))
                .spawn(move || worker_loop(member, parked))
                .expect("spawn team worker");
            // Starting a thread allocates, on both sides of the spawn;
            // wait for the new one to be up, so that all of it happens
            // inside the region that grew the team and every later
            // region finds nothing left to allocate. Asleep, not
            // yielding: a caller that yield-polled here kept the new
            // worker on its own core (see `worker_loop`) in five runs
            // of five.
            while TEAM.started.load(Ordering::SeqCst) < member {
                std::thread::sleep(Duration::from_micros(50));
            }
            self.workers.push(Worker {
                thread: handle.thread().clone(),
                parked,
            });
        }
    }
}

/// The team, if this thread may open a region on it now.
fn acquire() -> Option<MutexGuard<'static, Lead>> {
    // No task runs under this lock's guard un-caught, so a poisoned
    // lock still guards a consistent `Lead`.
    if FORCED_WIDTH.get() != 0 {
        return Some(TEAM.lead.lock().unwrap_or_else(|e| e.into_inner()));
    }
    match TEAM.lead.try_lock() {
        Ok(lead) => Some(lead),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Runs `tasks(member, task)` for every `task` in `0..count` on at most
/// `max_members` members.
fn run_on(max_members: usize, count: usize, tasks: &Tasks<'_>) {
    let members = max_members.min(count).min(width());
    let lead = if members > 1 { acquire() } else { None };
    let Some(mut lead) = lead else {
        return (0..count).for_each(|task| tasks(0, task));
    };
    assert!(
        count <= u32::MAX as usize,
        "a range word holds 32-bit task indices"
    );
    lead.grow(members - 1);
    lead.regions += 1;
    let region = lead.regions;
    for (i, range) in lead.ranges[..members].iter().enumerate() {
        let word = pack(i * count / members, (i + 1) * count / members);
        range.0.store(word, Ordering::Relaxed);
    }
    let job = Job {
        // SAFETY: the lifetime is erased only until this function
        // returns, which it does not before every member has left the
        // region.
        tasks: unsafe { std::mem::transmute::<*const Tasks<'_>, *const Tasks<'static>>(tasks) },
        ranges: lead.ranges.as_ptr(),
        members,
    };
    // SAFETY: this thread holds `lead` and no region is open (the last
    // one's close waited for its members), so nothing reads the job.
    unsafe { *TEAM.job.get() = Some(job) };
    // Publishes the job and the range words to every member that sees
    // the region open.
    TEAM.open.0.store(region, Ordering::SeqCst);
    for worker in &lead.workers[..members - 1] {
        if worker.parked.load(Ordering::SeqCst) {
            worker.thread.unpark();
        }
    }
    let was = INSIDE_PAR_MAP.replace(true);
    let mine = catch_unwind(AssertUnwindSafe(|| work(0, job)));
    TEAM.open.0.store(0, Ordering::SeqCst);
    poll(false, || {
        (TEAM.inside.0.load(Ordering::SeqCst) == 0).then_some(())
    });
    INSIDE_PAR_MAP.set(was);
    let theirs = if TEAM.panicked.swap(false, Ordering::SeqCst) {
        TEAM.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
    } else {
        None
    };
    drop(lead);
    if let Some(payload) = mine.err().or(theirs) {
        resume_unwind(payload);
    }
}

/// Runs `tasks(&mut states[member], task)` once for every `task` in
/// `0..count`, spread over at most `states.len()` members of the team
/// ([`width`] at most; see the module docs for when that is one):
/// member `i` gets `&mut states[i]` with each of its tasks — the
/// engine's per-member scratch, a map's per-worker state — and the
/// caller is member 0. One entry means inline. Returns when every task
/// has run; if one panicked, the panic resumes here once every member
/// has left the region (tasks not yet claimed by then may not have
/// run).
pub fn run_with<S: Send>(states: &mut [S], count: usize, tasks: &(dyn Fn(&mut S, usize) + Sync)) {
    struct Base<S>(*mut S);
    // SAFETY: only used to reach disjoint entries, below.
    unsafe impl<S: Send> Sync for Base<S> {}
    let (base, len) = (Base(states.as_mut_ptr()), states.len());
    assert!(len > 0 || count == 0, "a region needs a member's state");
    run_on(len, count, &|member, task| {
        let base = &base;
        assert!(member < len);
        // SAFETY: `run_on` admits members `0..len` only (asserted), a
        // member id belongs to one thread for the whole region, and
        // `states` is borrowed mutably until the region has drained —
        // so this is the only reference to the entry while the task
        // runs, and `S: Send` lets that thread use it.
        tasks(unsafe { &mut *base.0.add(member) }, task)
    });
}

/// [`run_with`] over an output cut into `chunk`-element pieces: task
/// `i` gets `&mut out[i·chunk ..]` (the last piece may be short) beside
/// its member's state, so the members of a region write one buffer
/// without sharing a cell — a pooling stage's planes, eight to a task.
pub fn run_chunks<S: Send, T: Send>(
    states: &mut [S],
    out: &mut [T],
    chunk: usize,
    tasks: &(dyn Fn(&mut S, usize, &mut [T]) + Sync),
) {
    struct Base<T>(*mut T);
    // SAFETY: only used to reach disjoint pieces, below.
    unsafe impl<T: Send> Sync for Base<T> {}
    assert!(chunk > 0, "a piece holds at least one element");
    let (base, len) = (Base(out.as_mut_ptr()), out.len());
    run_with(states, len.div_ceil(chunk), &|state, task| {
        let base = &base;
        let at = task * chunk;
        assert!(at < len);
        // SAFETY: piece `task` of `out`, in bounds (asserted; its end is
        // clamped). A region hands every task index out once, so no
        // other reference to these elements exists while the task runs,
        // `out` is borrowed mutably until the region has drained, and
        // `T: Send` lets the member's thread write them.
        let piece = unsafe { std::slice::from_raw_parts_mut(base.0.add(at), chunk.min(len - at)) };
        tasks(state, task, piece)
    });
}
