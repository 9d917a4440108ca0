//! `serve_dlrm_faulty_mix`: DLRM behind the concurrent `Server`, a
//! seeded mix of small, oversize and faulted requests. An *open* phase
//! sends on a Poisson schedule and times each request from when it was
//! due; a *saturate* phase keeps a fixed number outstanding, on the
//! guided server and then on its unprotected twin.

use crate::gen::{fault, layer_extents, poisson_schedule, request_mix, stream, LayerExtent};
use crate::layers;
use crate::offline::{fixed_planner, guided_planner};
use crate::stats::Samples;
use crate::trace::Span;
use crate::verify::{classify, clean_reply_is_right, within_tolerance, FaultTally};
use crate::{host, Clock, Metric, RunConfig, RunOutput};
use aiga::fp16::F16;
use aiga::prelude::*;
use aiga::util::Rng64;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::Duration;

const BUCKETS: [u64; 2] = [8, 32];
const LARGEST: usize = 32;
const DENSE: usize = 13;
const TABLES: usize = 8;
const TABLE_ROWS: usize = 1000;
/// Pooled request matrices of 1–8 rows, plus one oversize request that
/// every hundredth arrival carries (the session splits it).
const POOL: usize = 64;
const OVERSIZE_ROWS: usize = 80;
const OVERSIZE_EVERY: usize = 100;
/// One arrival in this many (2 %) carries a seeded fault, at a seeded
/// place in its block (faulted requests never coalesce, so they also
/// perturb batching).
const FAULT_EVERY: usize = 50;
/// Open-phase arrival rate: about a third of what the guided server
/// sustains with one worker on the 2-core host the bounds were set on
/// (500–650 req/s), so queueing shows without the backlog growing.
const OPEN_RATE_PER_S: f64 = 200.0;
/// Requests the saturate phase keeps outstanding.
const OUTSTANDING: usize = 16;
/// A send this late (or later) counts against the generator.
const LATE_MS: f64 = 5.0;
/// Requests that may be unanswered when a window's last one is sent,
/// however short the window: 2 % of a full-length window's sends.
const BACKLOG_FLOOR: usize = 8;
/// Faults sent straight through `Session::serve_with_fault` during
/// verification, where a flag or a correction is visible in the reply.
const SESSION_FAULTS: usize = 40;
/// The open phase is this many windows that each pass the validity
/// guard, out of at most `OPEN_WINDOW_TRIES` run.
const OPEN_WINDOWS: usize = 4;
const OPEN_WINDOW_TRIES: u64 = 12;
/// Guided / unprotected / unprotected / guided rounds of the saturate
/// phase.
const SATURATE_QUADS: usize = 5;

fn dlrm(batch: u64) -> Network {
    zoo::dlrm_net(batch, TABLES, TABLE_ROWS, 64, 11)
}

fn session(planner: Planner) -> Session {
    Session::builder_network(planner, "serve_dlrm_faulty_mix", dlrm)
        .buckets(BUCKETS)
        .recovery(true)
        .build()
}

fn server(planner: Planner) -> Server {
    Server::builder(session(planner))
        .workers(host::server_workers())
        .queue_capacity(1024)
        .coalesce_window(Duration::from_millis(1))
        .retry_on_verdict(true)
        .build()
}

/// A request of `rows` samples: 13 dense features in [-1, 1] and one
/// row index per embedding table.
fn request(rng: &mut Rng64, rows: usize) -> Matrix {
    Matrix::from_fn(rows, DENSE + TABLES, |_, c| {
        F16::from_f32(if c < DENSE {
            rng.range_f32(-1.0, 1.0)
        } else {
            rng.range_usize(0, TABLE_ROWS) as f32
        })
    })
}

/// One arrival: which pooled request, and the fault it carries if any.
#[derive(Clone, Copy)]
struct Arrival {
    request: usize,
    fault: Option<PipelineFault>,
}

/// The seeded inputs of a run and what a correct reply to each is.
struct Inputs {
    /// `POOL` small requests, then the oversize one.
    requests: Vec<Matrix>,
    /// Solo unprotected `Session::serve` output of each request.
    expected: Vec<Vec<f32>>,
    /// Fault-site extents of each request's (first) pipeline launch.
    extents: Vec<Vec<LayerExtent>>,
}

impl Inputs {
    fn arrivals(&self, rng: &mut Rng64, count: usize) -> Vec<Arrival> {
        let mut faulted_slot = 0;
        request_mix(rng, count, POOL, OVERSIZE_EVERY)
            .into_iter()
            .enumerate()
            .map(|(i, request)| {
                if i % FAULT_EVERY == 0 {
                    faulted_slot = rng.range_usize(0, FAULT_EVERY);
                }
                let fault = (i % FAULT_EVERY == faulted_slot).then(|| {
                    fault(
                        rng,
                        &self.extents[request],
                        (i / FAULT_EVERY).is_multiple_of(2),
                    )
                });
                Arrival { request, fault }
            })
            .collect()
    }

    /// Checks one served reply; faulted ones are graded into `tally`.
    fn check(
        &self,
        arrival: Arrival,
        reply: &Result<ServeReport, ServeError>,
        tally: &mut FaultTally,
    ) -> bool {
        let rows = self.requests[arrival.request].rows;
        let expected = &self.expected[arrival.request];
        match (reply, arrival.fault) {
            (Err(_), _) => false,
            (Ok(r), None) => clean_reply_is_right(r, rows, expected),
            (Ok(r), Some(_)) => {
                tally.absorb(classify(&r.report, expected));
                r.rows == rows
            }
        }
    }
}

/// Waits for `due_ns` without sleeping: on a virtual machine a timer
/// wake-up from an idle CPU can arrive tens of ms late, which would
/// read as a stalled generator. The generator owns one core for the
/// length of the open phase instead (the server has the others), and
/// yields so the collector can run on a small machine.
fn wait_until(clock: &Clock, due_ns: u64) {
    while clock.now_ns() < due_ns {
        std::thread::yield_now();
    }
}

/// Per-request timestamps of the open phase, ns on the run clock.
struct Timed {
    arrival: Arrival,
    due: u64,
    submit_start: u64,
    submit_end: u64,
    done: u64,
    bucket: u64,
}

impl Timed {
    /// How long after it was due the generator sent the request.
    fn late_ms(&self) -> f64 {
        (self.submit_start - self.due) as f64 / 1e6
    }
}

/// The open-loop validity guard over one window of `sent` requests, of
/// which `late` left more than `LATE_MS` after they were due and
/// `completed` had been answered when the last one was sent. More than
/// 1 % late means the generator stalled and the server saw less load
/// than scheduled; under 98 % completed means the backlog was growing
/// (up to `BACKLOG_FLOOR` requests are in flight at any moment, which
/// only a short window would mistake for a backlog). Either way the
/// window says nothing about the server: a stalled generator must never
/// read as a fast server.
fn open_guard(sent: usize, late: usize, completed: usize) -> Option<String> {
    if late > sent.div_ceil(100) {
        Some(format!(
            "{late} of {sent} sends were more than {LATE_MS} ms late: the generator stalled"
        ))
    } else if sent - completed > (sent / 50).max(BACKLOG_FLOOR) {
        Some(format!(
            "only {completed} of {sent} requests had completed when the last was sent: \
             the backlog grows at {OPEN_RATE_PER_S} req/s"
        ))
    } else {
        None
    }
}

/// `ServerStats` counters summed over the open windows that counted.
#[derive(Default)]
struct OpenCounters {
    completed: u64,
    batches: u64,
    coalesced: u64,
    shed: u64,
    rejected: u64,
    retries: u64,
    rows: usize,
}

impl OpenCounters {
    fn add(&mut self, before: &ServerStats, after: &ServerStats) {
        self.completed += after.completed - before.completed;
        self.batches += after.batches - before.batches;
        self.coalesced += after.coalesced_requests - before.coalesced_requests;
        self.shed += after.shed - before.shed;
        self.rejected += after.rejected - before.rejected;
        self.retries += after.retries - before.retries;
    }
}

/// Sends `arrivals` at their `due` offsets from one generator thread
/// while this thread collects the replies in order.
fn open_phase(
    server: &Server,
    inputs: &Inputs,
    arrivals: &[Arrival],
    due: &[u64],
    clock: &Clock,
    out: &mut RunOutput,
    tally: &mut FaultTally,
) -> Vec<Timed> {
    let (tx, rx) = mpsc::channel();
    let client = server.client();
    let phase_start = clock.now_ns() + 1_000_000;
    let mut timed = Vec::with_capacity(arrivals.len());
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (arrival, offset) in arrivals.iter().zip(due) {
                let due = phase_start + offset;
                wait_until(clock, due);
                let submit_start = clock.now_ns();
                let pending =
                    client.submit_with_fault(&inputs.requests[arrival.request], arrival.fault);
                let submit_end = clock.now_ns();
                if tx
                    .send((*arrival, due, submit_start, submit_end, pending))
                    .is_err()
                {
                    return;
                }
            }
        });
        for (arrival, due, submit_start, submit_end, pending) in rx {
            let reply = pending.and_then(Pending::wait);
            let done = clock.now_ns();
            out.count(inputs.check(arrival, &reply, tally));
            timed.push(Timed {
                arrival,
                due,
                submit_start,
                submit_end,
                done,
                bucket: reply.map_or(0, |r| r.bucket),
            });
        }
    });
    timed
}

/// Closed loop: one thread keeps `OUTSTANDING` requests in flight for
/// `seconds`, taking arrivals from `first` on, then drains. Returns the
/// requests completed and the seconds they took.
#[allow(clippy::too_many_arguments)]
fn saturate(
    server: &Server,
    inputs: &Inputs,
    arrivals: &[Arrival],
    first: usize,
    seconds: f64,
    clock: &Clock,
    out: &mut RunOutput,
    tally: &mut FaultTally,
) -> (usize, f64) {
    let client = server.client();
    let started = clock.now_ns();
    let deadline = started + (seconds * 1e9) as u64;
    let mut in_flight = VecDeque::with_capacity(OUTSTANDING);
    let mut sent = 0usize;
    let mut last_done = started;
    loop {
        while in_flight.len() < OUTSTANDING && clock.now_ns() < deadline {
            let arrival = arrivals[(first + sent) % arrivals.len()];
            let pending =
                client.submit_with_fault(&inputs.requests[arrival.request], arrival.fault);
            in_flight.push_back((arrival, pending));
            sent += 1;
        }
        let Some((arrival, pending)) = in_flight.pop_front() else {
            break;
        };
        let reply = pending.and_then(Pending::wait);
        last_done = clock.now_ns();
        out.count(inputs.check(arrival, &reply, tally));
    }
    (sent, (last_done - started) as f64 / 1e9)
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let clock = Clock::start();
    let mut out = RunOutput::default();
    let mut rng = stream(cfg.seed, 0x5e7e);
    // Eight requests of each size 1..=8, so every seed offers the same
    // rows per request and only content, order and timing vary.
    let mut requests: Vec<Matrix> = (0..POOL).map(|j| request(&mut rng, j / 8 + 1)).collect();
    requests.push(request(&mut rng, OVERSIZE_ROWS));

    // Set-up: session + server + the first request through each bucket
    // (plan, compile, first pack), from cold, several times.
    let mut setup_s = Vec::new();
    let mut cold_serve_ms = Vec::new();
    for _ in 0..cfg.cold_builds() {
        let t0 = clock.now_ns();
        let cold = server(guided_planner());
        let client = cold.client();
        let t1 = clock.now_ns();
        for first in [&requests[0], &requests[POOL]] {
            out.count(client.submit(first).and_then(Pending::wait).is_ok());
        }
        let t2 = clock.now_ns();
        setup_s.push((t2 - t0) as f64 / 1e9);
        cold_serve_ms.push((t2 - t1) as f64 / 1e6);
        cold.shutdown();
    }

    // What a correct reply is: the solo unprotected serve (d), equal to
    // the solo guided serve (a) and within tolerance of the f64
    // reference (b). The replies' bucket/rows also give the pad waste.
    let solo_unprotected = session(fixed_planner(Scheme::Unprotected));
    let solo_guided = session(guided_planner());
    let mut expected = Vec::new();
    let (mut real_rows, mut padded_rows) = (0usize, 0usize);
    // Building DLRM's tables is slow and the pool is sorted by size,
    // so the reference network is rebuilt only when the size changes.
    let mut reference = dlrm(1);
    for x in &requests {
        let u = solo_unprotected.serve(x).expect("unprotected solo serve");
        let want = u.report.output.clone();
        out.count(clean_reply_is_right(&u, x.rows, &want));
        if reference.batch != x.rows {
            reference = dlrm(x.rows as u64);
        }
        out.count(within_tolerance(
            &want,
            reference.reference_f64(x).into_iter(),
        ));
        let g = solo_guided.serve(x).expect("guided solo serve");
        out.count(clean_reply_is_right(&g, x.rows, &want));
        real_rows += g.rows;
        padded_rows += g.rows.div_ceil(g.bucket as usize) * g.bucket as usize;
        expected.push(want);
    }
    drop(reference); // before `peak_rss_mb` can count it
    let bucket_nets = BUCKETS.map(dlrm);
    let extents = requests
        .iter()
        .map(|x| {
            let launch_rows = x.rows.min(LARGEST);
            let bucket = solo_guided.bucket_for(launch_rows);
            let at = BUCKETS
                .iter()
                .position(|&b| b == bucket)
                .expect("a configured bucket");
            layer_extents(&bucket_nets[at], launch_rows)
        })
        .collect();
    drop(bucket_nets);
    let inputs = Inputs {
        requests,
        expected,
        extents,
    };

    // (e) straight through the session, where the verdict shows.
    let mut tally = FaultTally::default();
    let mut session_tally = FaultTally::default();
    let mut faulted_ms = Vec::new();
    let mut fault_rng = stream(cfg.seed, 0xfa17);
    for i in 0..if cfg.smoke {
        SESSION_FAULTS / 20
    } else {
        SESSION_FAULTS
    } {
        // A stride coprime with the pool size visits every request size.
        let j = i * 7 % inputs.requests.len();
        let f = fault(&mut fault_rng, &inputs.extents[j], i % 2 == 0);
        let t0 = clock.now_ns();
        let reply = solo_guided.serve_with_fault(&inputs.requests[j], Some(f));
        faulted_ms.push((clock.now_ns() - t0) as f64 / 1e6);
        match reply {
            Ok(r) => {
                out.count(r.rows == inputs.requests[j].rows);
                session_tally.absorb(classify(&r.report, &inputs.expected[j]));
            }
            Err(_) => out.count(false),
        }
    }

    let guided = server(guided_planner());
    let warm = |server: &Server, out: &mut RunOutput| {
        let client = server.client();
        for _ in 0..2 {
            for j in [0, POOL] {
                let reply = client.submit(&inputs.requests[j]).and_then(Pending::wait);
                let arrival = Arrival {
                    request: j,
                    fault: None,
                };
                out.count(inputs.check(arrival, &reply, &mut FaultTally::default()));
            }
        }
    };
    warm(&guided, &mut out);

    // Open phase, in windows. The host pauses now and then (a stolen
    // vCPU stalls every thread for tens of ms); a window that fails the
    // validity guard is discarded and another one runs in its place, so
    // only a guard that keeps failing makes the run invalid.
    let window_s = cfg.seconds * 0.4 / OPEN_WINDOWS as f64;
    let mut timed = Vec::new();
    let mut open = OpenCounters::default();
    let (mut valid, mut tried) = (0, 0u64);
    while valid < OPEN_WINDOWS && tried < OPEN_WINDOW_TRIES {
        let due = poisson_schedule(
            &mut stream(cfg.seed, 0xa771 + tried),
            OPEN_RATE_PER_S,
            window_s,
        );
        let arrivals = inputs.arrivals(&mut stream(cfg.seed, 0x3a1 + tried), due.len());
        tried += 1;
        let before = guided.stats();
        let window = open_phase(
            &guided, &inputs, &arrivals, &due, &clock, &mut out, &mut tally,
        );
        let after = guided.stats();
        let last_send = window.last().map_or(0, |t| t.submit_end);
        let in_window = window.iter().filter(|t| t.done <= last_send).count();
        let late = window.iter().filter(|t| t.late_ms() > LATE_MS).count();
        match open_guard(window.len(), late, in_window) {
            Some(why) => out.invalid = Some(why),
            None => {
                valid += 1;
                open.add(&before, &after);
                open.rows += window
                    .iter()
                    .map(|t| inputs.requests[t.arrival.request].rows)
                    .sum::<usize>();
                timed.extend(window);
            }
        }
    }
    out.note("open.windows_tried", tried as f64);
    out.note("open.sent", timed.len() as f64);
    if valid < OPEN_WINDOWS {
        return out; // invalid, with the last window's reason
    }
    out.invalid = None;
    let sent = timed.len();
    let latency_ms = |t: &Timed| (t.done - t.due) as f64 / 1e6;
    let open_latency = Samples::new(timed.iter().map(latency_ms).collect());

    if !cfg.trace {
        // Saturate phase: short guided / unprotected / unprotected /
        // guided quads. Each quad gives one throughput per twin and one
        // ratio; the medians over quads shrug off a stretch in which
        // the host was slow, and drift cancels inside a quad. Faults
        // cannot be caught without protection, so the twin gets the
        // same mix clean.
        let unprotected = server(fixed_planner(Scheme::Unprotected));
        warm(&unprotected, &mut out);
        let closed = inputs.arrivals(&mut stream(cfg.seed, 0xc105ed), 20_000);
        let clean: Vec<Arrival> = closed
            .iter()
            .map(|a| Arrival {
                request: a.request,
                fault: None,
            })
            .collect();
        let segment_s = cfg.seconds * 0.6 / (4 * SATURATE_QUADS) as f64;
        // [guided, unprotected] requests completed over the phase.
        let mut done = [0usize; 2];
        let (mut guided_rps, mut overhead_x) = (Vec::new(), Vec::new());
        for _ in 0..SATURATE_QUADS {
            let (mut requests, mut wall) = ([0usize; 2], [0f64; 2]);
            for twin in [0, 1, 1, 0] {
                let (server, mix, tally) = if twin == 0 {
                    (&guided, &closed, &mut tally)
                } else {
                    (&unprotected, &clean, &mut FaultTally::default())
                };
                let first = done[twin] + requests[twin];
                let (n, s) = saturate(
                    server, &inputs, mix, first, segment_s, &clock, &mut out, tally,
                );
                requests[twin] += n;
                wall[twin] += s;
            }
            let rps = [requests[0] as f64 / wall[0], requests[1] as f64 / wall[1]];
            guided_rps.push(rps[0]);
            overhead_x.push(rps[1] / rps[0]);
            done = [done[0] + requests[0], done[1] + requests[1]];
        }
        guided.shutdown();
        unprotected.shutdown();
        let [guided_n, unprotected_n] = done;
        out.note("saturate.guided_requests", guided_n as f64);
        out.note("saturate.unprotected_requests", unprotected_n as f64);
        let injected = tally.injected + session_tally.injected;
        let silent = tally.silent + session_tally.silent;
        out.note("faults.injected", injected as f64);
        out.note("faults.silent", silent as f64);
        out.note("latency_ms_p50", open_latency.median());
        out.note("latency_ms_p90", open_latency.percentile(0.9));
        let setup = Samples::new(setup_s);
        out.metrics = vec![
            Metric::new("setup_s", setup.median(), setup.len()),
            Metric::new(
                "throughput_rps",
                Samples::new(guided_rps).median(),
                guided_n,
            ),
            Metric::new(
                "abft_overhead_x",
                Samples::new(overhead_x).median(),
                guided_n.min(unprotected_n),
            ),
            Metric::new(
                "caught_frac",
                1.0 - silent as f64 / injected.max(1) as f64,
                injected,
            ),
            Metric::new("peak_rss_mb", host::peak_rss_mib(), 1),
        ];
        return out;
    }

    // Traced run. Every open-phase request was timestamped; the even
    // ones also become spans, so the odd ones price the span recording.
    out.note(
        "faults.injected",
        (tally.injected + session_tally.injected) as f64,
    );
    out.note(
        "faults.silent",
        (tally.silent + session_tally.silent) as f64,
    );
    for (i, t) in timed.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
        let req = i as u64;
        let root = out.trace.push(Span {
            name: "request",
            layer: "benchmark",
            req,
            parent: None,
            start_ns: t.due,
            end_ns: t.done,
        });
        for (name, start_ns, end_ns) in [
            ("serve.submit", t.submit_start, t.submit_end),
            ("serve.wait", t.submit_end, t.done),
        ] {
            out.trace.push(Span {
                name,
                layer: "core.serve",
                req,
                parent: Some(root),
                start_ns,
                end_ns,
            });
        }
    }
    let subset = |parity: usize| {
        Samples::new(
            timed
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(_, t)| latency_ms(t))
                .collect(),
        )
    };
    let solo_ms = |x: &Matrix, iters: usize| {
        let samples = (0..iters)
            .map(|_| {
                let t0 = clock.now_ns();
                std::hint::black_box(solo_guided.serve(x).expect("guided solo serve"));
                (clock.now_ns() - t0) as f64 / 1e6
            })
            .collect();
        Samples::new(samples).median()
    };
    let iters = if cfg.smoke { 3 } else { 30 };
    let full8 = request(&mut rng, 8);
    let serve8_ms = solo_ms(&full8, iters);
    let serve32_ms = solo_ms(&inputs.requests[POOL].row_block(0, LARGEST), iters);
    let split_ms = solo_ms(&inputs.requests[POOL], iters);
    let pass_of = |t: &Timed| {
        if inputs.requests[t.arrival.request].rows > LARGEST {
            split_ms
        } else if t.bucket == 8 {
            serve8_ms
        } else {
            serve32_ms
        }
    };

    // One request outstanding: latency with nothing to queue behind.
    let client = guided.client();
    let solo_latency = Samples::new(
        (0..if cfg.smoke { 10 } else { 100 })
            .map(|i| {
                let arrival = Arrival {
                    request: i % POOL,
                    fault: None,
                };
                let t0 = clock.now_ns();
                let reply = client
                    .submit(&inputs.requests[arrival.request])
                    .and_then(Pending::wait);
                let ms = (clock.now_ns() - t0) as f64 / 1e6;
                out.count(inputs.check(arrival, &reply, &mut FaultTally::default()));
                ms
            })
            .collect(),
    );
    let final_stats = guided.shutdown();

    let median_of =
        |f: &dyn Fn(&Timed) -> f64| Samples::new(timed.iter().map(f).collect()).median();
    let completed = open.completed.max(1) as f64;
    let batches = open.batches.max(1) as f64;
    let late_ms = Samples::new(timed.iter().map(Timed::late_ms).collect());
    let late = timed.iter().filter(|t| t.late_ms() > LATE_MS).count();
    let faulted = Samples::new(faulted_ms);
    let m = &mut out.metrics;
    let mut push = |name, value, samples| m.push(Metric::new(name, value, samples));
    push(
        "trace.overhead_frac",
        subset(0).median() / subset(1).median() - 1.0,
        sent,
    );
    push(
        "serve.submit_us_p50",
        median_of(&|t| (t.submit_end - t.submit_start) as f64 / 1e3),
        sent,
    );
    push(
        "serve.wait_ms_p50",
        median_of(&|t| (t.done - t.submit_end) as f64 / 1e6),
        sent,
    );
    push(
        "serve.queue_ms_p50",
        median_of(&|t| latency_ms(t) - pass_of(t)),
        sent,
    );
    push(
        "serve.solo_latency_ms_p50",
        solo_latency.median(),
        solo_latency.len(),
    );
    push("latency_ms_p50", open_latency.median(), sent);
    push("latency_ms_p90", open_latency.percentile(0.9), sent);
    push("serve.latency_ms_p99", open_latency.percentile(0.99), sent);
    push("serve.reqs_per_batch", completed / batches, sent);
    push("serve.rows_per_batch", open.rows as f64 / batches, sent);
    push(
        "serve.coalesced_frac",
        open.coalesced as f64 / completed,
        sent,
    );
    push(
        "serve.max_queue_depth",
        final_stats.max_queue_depth as f64,
        sent,
    );
    push(
        "serve.shed_frac",
        open.shed as f64 / sent.max(1) as f64,
        sent,
    );
    push(
        "serve.rejected_frac",
        open.rejected as f64 / sent.max(1) as f64,
        sent,
    );
    push("serve.retries", open.retries as f64, sent);
    push("serve.gen_late_ms_max", late_ms.max(), sent);
    push(
        "serve.gen_late_frac",
        late as f64 / sent.max(1) as f64,
        sent,
    );
    push(
        "session.cold_serve_ms",
        Samples::new(cold_serve_ms).median(),
        setup_s.len(),
    );
    push("session.split_serve_ms", split_ms, iters);
    push(
        "session.pad_waste_frac",
        1.0 - real_rows as f64 / padded_rows as f64,
        POOL + 1,
    );
    push(
        "session.cache_hit_frac",
        final_stats.session.cache_hits as f64 / final_stats.session.requests.max(1) as f64,
        final_stats.session.requests as usize,
    );
    let all = session_tally;
    push("schemes.flagged_frac", all.share(all.flagged), all.injected);
    push(
        "schemes.corrected_frac",
        all.share(all.corrected),
        all.injected,
    );
    push("schemes.benign_frac", all.share(all.benign), all.injected);
    push(
        "schemes.correct_extra_ms",
        faulted.median() - serve8_ms,
        faulted.len(),
    );

    let serve_ms = layers::replay(&dlrm(8), &solo_guided, &full8, 0.2, cfg, &clock, &mut out);
    layers::fixed_scheme_twins(session, &full8, serve_ms, cfg, &mut out.metrics);
    layers::build_costs(|| dlrm(8), &mut out.metrics);
    layers::micro_probes(cfg, &mut out.metrics);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_guard_rejects_a_stalled_generator_and_a_growing_backlog() {
        // 400 sends: up to 4 may be late, at least 392 must be done.
        assert_eq!(open_guard(400, 4, 392), None);
        assert!(open_guard(400, 5, 400)
            .unwrap()
            .contains("generator stalled"));
        assert!(open_guard(400, 0, 391).unwrap().contains("backlog grows"));
        assert!(open_guard(1000, 0, 979).unwrap().contains("backlog grows"));
        // A short window may have one late send and eight in flight.
        assert_eq!(open_guard(96, 1, 88), None);
        assert!(open_guard(96, 2, 96).is_some());
        assert!(open_guard(96, 0, 87).is_some());
        assert_eq!(open_guard(0, 0, 0), None);
    }

    #[test]
    fn requests_carry_dense_features_and_table_indices() {
        let x = request(&mut stream(1, 2), 5);
        assert_eq!((x.rows, x.cols), (5, DENSE + TABLES));
        for r in 0..5 {
            for c in 0..DENSE {
                assert!((-1.0..=1.0).contains(&x.get_f32(r, c)));
            }
            for c in DENSE..DENSE + TABLES {
                let v = x.get_f32(r, c);
                assert!(
                    v.fract() == 0.0 && (0.0..TABLE_ROWS as f32).contains(&v),
                    "{v}"
                );
            }
        }
    }
}
