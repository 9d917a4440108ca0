//! The fork-join team's contract: every task runs exactly once, the
//! inline rule holds (asserted by thread id), and a task's panic
//! surfaces on the caller after the region has drained, leaving the
//! team whole. Regions that must fan out are opened under
//! `team::with_width`, which grows the team past the host's core count
//! and waits for it rather than falling back inline — so these tests
//! mean the same on a single-core runner, and beside each other.

use aiga_util::team;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

fn here() -> ThreadId {
    std::thread::current().id()
}

/// A region of `tasks` calls of `f(member, task)` on at most three
/// members: each member's state is its own index.
fn run(tasks: usize, f: &(dyn Fn(usize, usize) + Sync)) {
    team::run_with(&mut [0, 1, 2], tasks, &|member, task| f(*member, task));
}

#[test]
fn back_to_back_regions_visit_every_task_exactly_once() {
    let visits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
    let members_seen = AtomicUsize::new(0);
    team::with_width(3, || {
        for region in 0..10_000usize {
            let tasks = 1 + region % 64;
            run(tasks, &|member, task| {
                assert!(member < 3 && task < tasks);
                members_seen.fetch_or(1 << member, Ordering::Relaxed);
                visits[task].fetch_add(1, Ordering::Relaxed);
            });
            for (task, n) in visits.iter().enumerate() {
                let want = u32::from(task < tasks);
                assert_eq!(
                    n.swap(0, Ordering::Relaxed),
                    want,
                    "region {region} task {task}"
                );
            }
        }
    });
    // Ten thousand regions and the caller never once had company: the
    // team is not running.
    assert_ne!(members_seen.load(Ordering::Relaxed), 1);
}

#[test]
fn per_member_state_is_lent_to_one_member_at_a_time() {
    // Unsynchronised per-member sums: a state shared by two threads
    // would lose updates (and the borrow would be unsound).
    let mut sums = [0u64; 3];
    team::with_width(3, || {
        for _ in 0..200 {
            team::run_with(&mut sums, 500, &|sum, task| *sum += task as u64);
        }
    });
    assert_eq!(sums.iter().sum::<u64>(), 200 * (499 * 500 / 2));
    // One entry means inline, in task order.
    let mut order = [Vec::new()];
    team::run_with(&mut order, 5, &|seen, task| seen.push((task, here())));
    assert_eq!(order[0], (0..5).map(|t| (t, here())).collect::<Vec<_>>());
}

#[test]
fn chunked_regions_hand_every_piece_out_once() {
    // 1003 elements in pieces of 8: 126 tasks, the last three long. Each
    // task adds its index + 1 to its own piece; a piece handed out twice
    // or a cell shared by two would show in the sums.
    let mut out = vec![0u32; 1003];
    let mut seen = [0usize; 3];
    team::with_width(3, || {
        for _ in 0..50 {
            team::run_chunks(&mut seen, &mut out, 8, &|seen, task, piece| {
                *seen += piece.len();
                piece.iter_mut().for_each(|cell| *cell += task as u32 + 1);
            });
        }
    });
    assert_eq!(seen.iter().sum::<usize>(), 50 * 1003);
    for (i, &cell) in out.iter().enumerate() {
        assert_eq!(cell, 50 * (i as u32 / 8 + 1), "element {i}");
    }
    // Nothing to cut is no tasks.
    team::run_chunks(&mut seen, &mut [0u32; 0], 8, &|_, _, _| unreachable!());
}

#[test]
fn nested_and_marked_regions_run_inline_on_their_caller() {
    // Opened inside a task: on that task's thread, whichever member.
    team::with_width(3, || {
        run(6, &|_, _| {
            let outer = here();
            assert_eq!(team::width(), 1);
            run(4, &|member, _| assert_eq!((member, here()), (0, outer)));
        });
    });
    // Under `as_worker`: on the caller, even with a width forced.
    let caller = here();
    team::with_width(3, || {
        aiga_util::as_worker(|| {
            run(8, &|member, _| assert_eq!((member, here()), (0, caller)));
        })
    });
}

#[test]
fn a_region_opened_while_the_team_is_held_runs_inline() {
    let (held, is_held) = mpsc::channel::<()>();
    let (release, released) = mpsc::channel::<()>();
    let released = std::sync::Mutex::new(released);
    let holder_visits: Vec<AtomicU32> = (0..2).map(|_| AtomicU32::new(0)).collect();
    std::thread::scope(|scope| {
        let holder = scope.spawn(|| {
            team::with_width(2, || {
                run(2, &|_, task| {
                    if task == 0 {
                        // The team is held from here until `release`.
                        held.send(()).unwrap();
                        released.lock().unwrap().recv().unwrap();
                    }
                    holder_visits[task].fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        is_held.recv().unwrap();
        // No seam on this thread: it does not wait for the team.
        let second = here();
        let ran = AtomicU32::new(0);
        run(16, &|member, _| {
            assert_eq!((member, here()), (0, second));
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 16);
        release.send(()).unwrap();
        holder.join().unwrap();
    });
    // The holder's region never noticed.
    assert!(holder_visits.iter().all(|n| n.load(Ordering::Relaxed) == 1));
}

#[test]
fn a_task_panic_surfaces_after_the_region_drained_and_the_team_survives() {
    for panicking_task in [0usize, 40] {
        let in_flight = AtomicUsize::new(0);
        let ran = AtomicUsize::new(0);
        struct Leave<'a>(&'a AtomicUsize);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team::with_width(3, || {
                run(64, &|_, task| {
                    in_flight.fetch_add(1, Ordering::SeqCst);
                    let _leave = Leave(&in_flight);
                    // Long enough that other members are mid-task when
                    // the panic is raised.
                    std::thread::sleep(Duration::from_micros(200));
                    if task == panicking_task {
                        panic!("task {task} fails");
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            })
        }));
        let message = caught.expect_err("the panic reaches the caller");
        assert_eq!(
            message.downcast_ref::<String>().map(String::as_str),
            Some(format!("task {panicking_task} fails").as_str())
        );
        // Every member had left the region when the panic resumed.
        assert_eq!(in_flight.load(Ordering::SeqCst), 0);
        assert!(ran.load(Ordering::SeqCst) < 64);

        // The next region has all three members: three tasks that each
        // wait for the other two can only finish on three threads.
        let arrived = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(20);
        team::with_width(3, || {
            run(3, &|_, _| {
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            });
        });
        assert_eq!(arrived.load(Ordering::SeqCst), 3);
    }
}

#[test]
fn a_member_runs_its_range_from_the_front_and_steals_from_the_back() {
    // Two members, 64 tasks: the caller owns 0..32, the worker 32..64.
    // The caller is held after its first task until the worker, done
    // with its own range, has stolen from the back of the caller's; then
    // the two meet in the middle of it.
    let caller = here();
    let ran = std::sync::Mutex::new(Vec::new());
    let deadline = Instant::now() + Duration::from_secs(20);
    team::with_width(2, || {
        team::run_with(&mut [(), ()], 64, &|_, task| {
            ran.lock().unwrap().push((here(), task));
            if here() == caller && task == 0 {
                let stolen = || {
                    ran.lock()
                        .unwrap()
                        .iter()
                        .any(|&(t, task)| t != caller && task < 32)
                };
                while !stolen() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
    });
    let ran = ran.into_inner().unwrap();
    let of = |mine: bool| -> Vec<usize> {
        let tasks = ran.iter().filter(|&&(t, _)| (t == caller) == mine);
        tasks.map(|&(_, task)| task).collect()
    };
    let (front, back) = (of(true), of(false));
    let met = front.len();
    assert!((1..32).contains(&met), "the caller ran {front:?}");
    assert_eq!(front, (0..met).collect::<Vec<_>>());
    assert_eq!(back, (32..64).chain((met..32).rev()).collect::<Vec<_>>());
}
