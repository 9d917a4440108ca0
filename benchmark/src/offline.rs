//! The three closed-loop workloads: one client calling
//! `Session::serve`, guided and unprotected twins timed in ABBA order.

use crate::gen::{fault_list, layer_extents, stream};
use crate::layers;
use crate::stats::Samples;
use crate::trace::Span;
use crate::verify::{classify, clean_reply_is_right, within_tolerance, FaultTally};
use crate::{host, Clock, Metric, RunConfig, RunOutput};
use aiga::prelude::*;

/// One closed-loop workload: a network family served at one batch.
pub struct Offline {
    pub name: &'static str,
    pub batch: u64,
    /// Seeded single faults injected during verification.
    pub faults: usize,
    /// `(batch, smoke)` → the network; smoke runs may shrink the input.
    pub build: fn(u64, bool) -> Network,
}

/// The paper's bandwidth-/compute-bound MLP: 1024 → 1024 → 1024 → 1000
/// (a quarter as wide in a smoke run).
pub fn fc1024(batch: u64, smoke: bool) -> Network {
    let width = if smoke { 256 } else { 1024 };
    let mut b = NetworkBuilder::new("fc1024", batch as usize, width, 1, 1, 7);
    b.fc("fc0", width, true);
    b.fc("fc1", width, true);
    b.fc("fc2", width - 24, false);
    b.build()
}

pub fn squeezenet(batch: u64, smoke: bool) -> Network {
    let hw = if smoke { 64 } else { 224 };
    zoo::squeezenet_v11_net(batch, hw, hw, 7)
}

/// The plan served today: intensity-guided selection on the modelled T4.
pub fn guided_planner() -> Planner {
    Planner::new(DeviceSpec::t4())
}

/// A planner that can only pick `scheme` — `Unprotected` gives the twin
/// every overhead is measured against.
pub fn fixed_planner(scheme: Scheme) -> Planner {
    guided_planner().candidates([scheme])
}

/// Distinct request matrices a run cycles through.
const REQUESTS: usize = 2;

impl Offline {
    pub fn session(&self, planner: Planner, recovery: bool, smoke: bool) -> Session {
        let build = self.build;
        Session::builder_network(planner, self.name, move |b| build(b, smoke))
            .buckets([self.batch])
            .recovery(recovery)
            .build()
    }

    pub fn run(&self, cfg: &RunConfig) -> RunOutput {
        let clock = Clock::start();
        let mut out = RunOutput::default();
        let net = (self.build)(self.batch, cfg.smoke);
        let rows = self.batch as usize;
        let inputs: Vec<Matrix> = (0..REQUESTS)
            .map(|j| {
                let seed = stream(cfg.seed, 0x1a9 + j as u64).next_u64();
                Matrix::random(rows, net.input_features(), seed)
            })
            .collect();

        // Set-up: network + session + first request (plan, compile,
        // first weight pack), from cold, several times.
        let mut setup_s = Vec::new();
        let mut cold_serve_ms = Vec::new();
        for _ in 0..cfg.cold_builds() {
            let t0 = clock.now_ns();
            let session = self.session(guided_planner(), false, cfg.smoke);
            let t1 = clock.now_ns();
            let reply = session.serve(&inputs[0]);
            let t2 = clock.now_ns();
            out.count(reply.is_ok());
            setup_s.push((t2 - t0) as f64 / 1e9);
            cold_serve_ms.push((t2 - t1) as f64 / 1e6);
        }

        let guided = self.session(guided_planner(), false, cfg.smoke);
        let unprotected = self.session(fixed_planner(Scheme::Unprotected), false, cfg.smoke);

        // Warm-up, two passes per twin; the unprotected replies become
        // the expected bytes of every later reply (check a).
        let mut expected: Vec<Vec<f32>> = Vec::new();
        for pass in 0..2 {
            for (j, x) in inputs.iter().enumerate() {
                let u = unprotected.serve(x).expect("unprotected twin serves");
                if pass == 0 {
                    expected.push(u.report.output.clone());
                }
                out.count(clean_reply_is_right(&u, rows, &expected[j]));
                let g = guided.serve(x).expect("guided twin serves");
                out.count(clean_reply_is_right(&g, rows, &expected[j]));
            }
        }

        // Timed ABBA quads. A traced run spends its measuring time in
        // three parts: this loop, the layer replay, the micro probes.
        let loop_s = if cfg.trace {
            cfg.seconds * 0.3
        } else {
            cfg.seconds
        };
        let mut g_ms = [Vec::new(), Vec::new()]; // [untraced, traced]
        let mut u_ms = Vec::new();
        let started = clock.now_ns();
        let mut quad = 0u64;
        while quad < 2 || ((clock.now_ns() - started) as f64) < loop_s * 1e9 {
            let traced = cfg.trace && quad % 2 == 1;
            for (slot, twin) in [&guided, &unprotected, &unprotected, &guided]
                .into_iter()
                .enumerate()
            {
                let req = quad * 4 + slot as u64;
                let j = req as usize % inputs.len();
                let t0 = clock.now_ns();
                let reply = twin.serve(&inputs[j]).expect("twin serves");
                let t1 = clock.now_ns();
                out.count(clean_reply_is_right(&reply, rows, &expected[j]));
                let ms = (t1 - t0) as f64 / 1e6;
                if slot == 0 || slot == 3 {
                    g_ms[traced as usize].push(ms);
                    if traced {
                        let root = out.trace.push(Span {
                            name: "request",
                            layer: "benchmark",
                            req,
                            parent: None,
                            start_ns: t0,
                            end_ns: clock.now_ns(),
                        });
                        out.trace.push(Span {
                            name: "session.serve",
                            layer: "core.session",
                            req,
                            parent: Some(root),
                            start_ns: t0,
                            end_ns: t1,
                        });
                    }
                } else {
                    u_ms.push(ms);
                }
            }
            quad += 1;
        }
        let [untraced_ms, traced_ms] = g_ms;
        let guided_wall_ms: f64 = untraced_ms.iter().chain(&traced_ms).sum();
        let guided_n = untraced_ms.len() + traced_ms.len();
        let guided_all = Samples::new(untraced_ms.iter().chain(&traced_ms).copied().collect());
        let unprotected_all = Samples::new(u_ms);

        // Untimed verification: (b) the f64 reference, (e) seeded faults.
        for (x, want) in inputs.iter().zip(&expected) {
            let reference = net.reference_f64(x);
            out.count(within_tolerance(want, reference.into_iter()));
        }
        let recovering = self.session(guided_planner(), true, cfg.smoke);
        let clean = recovering.serve(&inputs[0]).expect("recovery twin serves");
        out.count(clean_reply_is_right(&clean, rows, &expected[0]));
        let faults = fault_list(
            &mut stream(cfg.seed, 0xfa17),
            &layer_extents(&net, rows),
            if cfg.smoke {
                self.faults.div_ceil(20)
            } else {
                self.faults
            },
        );
        let mut tally = FaultTally::default();
        let mut faulted_ms = Vec::new();
        for fault in faults {
            let t0 = clock.now_ns();
            let reply = recovering.serve_with_fault(&inputs[0], Some(fault));
            faulted_ms.push((clock.now_ns() - t0) as f64 / 1e6);
            match reply {
                Ok(r) => {
                    out.count(r.rows == rows);
                    tally.absorb(classify(&r.report, &expected[0]));
                }
                Err(_) => out.count(false),
            }
        }

        out.note("samples.guided", guided_n as f64);
        out.note("samples.unprotected", unprotected_all.len() as f64);
        out.note("samples.setup", setup_s.len() as f64);
        out.note("faults.injected", tally.injected as f64);
        out.note("faults.silent", tally.silent as f64);

        if !cfg.trace {
            out.note("latency_ms_p50", guided_all.median());
            out.note("latency_ms_p90", guided_all.percentile(0.9));
            let setup = Samples::new(setup_s);
            out.metrics = vec![
                Metric::new("setup_s", setup.median(), setup.len()),
                Metric::new(
                    "throughput_rps",
                    guided_n as f64 / (guided_wall_ms / 1e3),
                    guided_n,
                ),
                Metric::new(
                    "abft_overhead_x",
                    guided_all.median() / unprotected_all.median(),
                    guided_n.min(unprotected_all.len()),
                ),
                Metric::new("caught_frac", tally.caught_frac(), tally.injected),
                Metric::new("peak_rss_mb", host::peak_rss_mib(), 1),
            ];
            return out;
        }

        // Traced run: per-layer numbers.
        let m = &mut out.metrics;
        m.push(Metric::new("latency_ms_p50", guided_all.median(), guided_n));
        m.push(Metric::new(
            "latency_ms_p90",
            guided_all.percentile(0.9),
            guided_n,
        ));
        m.push(Metric::new(
            "trace.overhead_frac",
            Samples::new(traced_ms).median() / Samples::new(untraced_ms).median() - 1.0,
            guided_n,
        ));
        m.push(Metric::new(
            "session.cold_serve_ms",
            Samples::new(cold_serve_ms).median(),
            setup_s.len(),
        ));
        let faulted = Samples::new(faulted_ms);
        m.push(Metric::new(
            "schemes.flagged_frac",
            tally.share(tally.flagged),
            tally.injected,
        ));
        m.push(Metric::new(
            "schemes.corrected_frac",
            tally.share(tally.corrected),
            tally.injected,
        ));
        m.push(Metric::new(
            "schemes.benign_frac",
            tally.share(tally.benign),
            tally.injected,
        ));
        m.push(Metric::new(
            "schemes.correct_extra_ms",
            faulted.median() - guided_all.median(),
            faulted.len(),
        ));

        // An oversize request (one row more than the bucket) takes the
        // split path: two chunks through the same pipeline.
        let oversize = Matrix::random(rows + 1, net.input_features(), cfg.seed ^ 0x0511);
        let split: Vec<f64> = (0..2)
            .map(|_| {
                let t0 = clock.now_ns();
                let reply = guided.serve(&oversize);
                out.count(reply.is_ok_and(|r| r.rows == rows + 1));
                (clock.now_ns() - t0) as f64 / 1e6
            })
            .collect();
        let m = &mut out.metrics;
        m.push(Metric::new(
            "session.split_serve_ms",
            Samples::new(split).median(),
            2,
        ));
        // Every request of these workloads fills its bucket exactly.
        m.push(Metric::new("session.pad_waste_frac", 0.0, guided_n));
        let stats = guided.stats();
        m.push(Metric::new(
            "session.cache_hit_frac",
            stats.cache_hits as f64 / stats.requests.max(1) as f64,
            stats.requests as usize,
        ));

        let serve_ms = layers::replay(&net, &guided, &inputs[0], 0.3, cfg, &clock, &mut out);
        layers::fixed_scheme_twins(
            |planner| self.session(planner, false, cfg.smoke),
            &inputs[0],
            serve_ms,
            cfg,
            &mut out.metrics,
        );
        layers::build_costs(|| (self.build)(self.batch, cfg.smoke), &mut out.metrics);
        layers::micro_probes(cfg, &mut out.metrics);
        layers::no_server(&mut out.metrics);
        out
    }
}
