//! The repo's benchmark: four seeded workloads over the protected
//! serving stack, each measured against an unprotected twin.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <file>] [--spans <file>]
//! benchmark --smoke [--seed <n>]
//! benchmark --compare <base> <new>
//! ```
//!
//! One workload per process. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer metrics of a traced run; the last line of
//! standard output is the result object the driver reads. README.md in
//! this directory is the glossary.

mod compare;
mod gen;
mod host;
mod layers;
mod metrics;
mod offline;
mod serve;
mod stats;
mod trace;
mod verify;

use aiga::util::Json;
use metrics::Metric;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: host::CountingAllocator = host::CountingAllocator;

/// Nanoseconds since the run began — the time base of every span.
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// What the command line asked of one run.
pub struct RunConfig {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    pub trace: bool,
    /// A cheap pass over every code path; its numbers mean nothing.
    pub smoke: bool,
}

impl RunConfig {
    /// Cold builds behind the `setup_s` median.
    pub fn cold_builds(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// What one run found.
#[derive(Default)]
pub struct RunOutput {
    /// Requests issued, in every phase.
    pub attempted: u64,
    /// Requests that errored or whose reply failed a check.
    pub failed: u64,
    /// Why the run's numbers cannot be trusted (a stalled generator, a
    /// growing backlog) — such a run exits non-zero.
    pub invalid: Option<String>,
    pub metrics: Vec<Metric>,
    pub trace: trace::Trace,
    /// Sample counts and other context, printed and recorded but not
    /// part of the declared metric set.
    pub notes: Vec<(&'static str, f64)>,
}

impl RunOutput {
    /// Counts one request and whether its reply passed its checks.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CnnSqueezenet224B1,
    Fc1024B1,
    Fc1024B256,
    ServeDlrmFaultyMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CnnSqueezenet224B1,
        Workload::Fc1024B1,
        Workload::Fc1024B256,
        Workload::ServeDlrmFaultyMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CnnSqueezenet224B1 => "cnn_squeezenet224_b1",
            Workload::Fc1024B1 => "fc1024_b1",
            Workload::Fc1024B256 => "fc1024_b256",
            Workload::ServeDlrmFaultyMix => "serve_dlrm_faulty_mix",
        }
    }

    fn run(self, cfg: &RunConfig) -> RunOutput {
        let offline = |batch, faults, build| offline::Offline {
            name: self.name(),
            batch,
            faults,
            build,
        };
        match self {
            Workload::CnnSqueezenet224B1 => offline(1, 12, offline::squeezenet).run(cfg),
            Workload::Fc1024B1 => offline(1, 50, offline::fc1024).run(cfg),
            Workload::Fc1024B256 => offline(256, 64, offline::fc1024).run(cfg),
            Workload::ServeDlrmFaultyMix => serve::run(cfg),
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    spans: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
        spans: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?),
            "--spans" => args.spans = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.compare.is_none() && !args.smoke && args.workload.is_none() {
        return Err("one of --workload, --smoke or --compare is required".to_string());
    }
    Ok(args)
}

/// The fields of the result object the driver reads: exactly its four
/// keys. `--out` records add the sample count behind every value.
fn result_fields(
    output: &RunOutput,
    metrics: &[Metric],
    with_samples: bool,
) -> Vec<(&'static str, Json)> {
    let metric_objects = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let (unit, _) = metrics::declared(m.name).expect("declared metric");
                let mut fields = vec![("value", Json::num(m.value)), ("unit", Json::str(unit))];
                if with_samples {
                    fields.push(("samples", Json::num(m.samples as f64)));
                }
                (m.name.to_string(), Json::obj(fields))
            })
            .collect(),
    );
    vec![
        ("correct", Json::Bool(output.failed == 0)),
        ("attempted", Json::num(output.attempted as f64)),
        ("failed", Json::num(output.failed as f64)),
        ("metrics", metric_objects),
    ]
}

fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(line.as_bytes())?;
    file.write_all(b"\n")
}

/// Runs one workload and prints its report; the result line is last.
fn run_workload(workload: Workload, cfg: &RunConfig, args: &Args) -> Result<(), String> {
    let mut output = workload.run(cfg);
    if let Some(why) = &output.invalid {
        for (name, value) in &output.notes {
            eprintln!("# {name} {value}");
        }
        return Err(format!("{}: invalid run: {why}", workload.name()));
    }
    let metrics = metrics::in_declared_order(cfg.trace, std::mem::take(&mut output.metrics))?;
    println!(
        "# {} seed {} trace {}",
        workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    let provenance = host::provenance(cfg.seed, cfg.seconds);
    println!("# provenance {}", provenance.render());
    for (name, value) in &output.notes {
        println!("# {name} {value}");
    }
    for m in &metrics {
        let (unit, lower_is_better) = metrics::declared(m.name).expect("declared metric");
        let better = if lower_is_better { "lower" } else { "higher" };
        println!(
            "{:<40} {:>18.6} {:<10} n={:<7} {better} is better",
            m.name, m.value, unit, m.samples
        );
    }
    for (name, q) in [("latency_ms_p50", 0.5), ("latency_ms_p90", 0.9)] {
        if let Some(m) = metrics.iter().find(|m| m.name == name) {
            if !stats::percentile_is_supported(m.samples, q) {
                println!(
                    "# {name} has {} samples beyond it, under the ten the rule asks for",
                    stats::samples_beyond(m.samples, q)
                );
            }
        }
    }
    if let Some(path) = &args.spans {
        std::fs::write(path, output.trace.render_lines()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.out {
        let mut record = result_fields(&output, &metrics, true);
        record.extend([
            ("workload", Json::str(workload.name())),
            ("trace", Json::num(f64::from(u8::from(cfg.trace)))),
            ("smoke", Json::Bool(cfg.smoke)),
            (
                "notes",
                Json::obj(output.notes.iter().map(|&(k, v)| (k, Json::num(v)))),
            ),
            ("provenance", provenance),
        ]);
        append_line(path, &Json::obj(record).render()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{}",
        Json::obj(result_fields(&output, &metrics, false)).render()
    );
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((base, new)) = &args.compare {
        return compare::run(base, new);
    }
    let overrides = host::aiga_overrides();
    if !overrides.is_empty() {
        return Err(format!(
            "refusing to measure with overrides set: {}",
            overrides.join(", ")
        ));
    }
    if args.smoke {
        // Every workload in both modes, each at a fortieth of the run
        // length: a twentieth per workload.
        let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        for workload in workloads {
            for trace in [false, true] {
                let cfg = RunConfig {
                    seed: args.seed,
                    seconds: args.seconds / 40.0,
                    trace,
                    smoke: true,
                };
                run_workload(workload, &cfg, &args)?;
            }
        }
        return Ok(true);
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
    };
    run_workload(args.workload.expect("checked by parse_args"), &cfg, &args)?;
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload fc1024_b1 --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Fc1024B1));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (9, 10.0, true, false)
        );
        let c = parse_args(&argv("--compare a.jsonl b.jsonl")).unwrap();
        assert_eq!(c.compare, Some(("a.jsonl".into(), "b.jsonl".into())));
        assert!(parse_args(&argv("--smoke")).unwrap().smoke);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload fc1024_b1 --trace 2",
            "--workload fc1024_b1 --seconds 0",
            "--workload fc1024_b1 --seed x",
            "--workload",
            "--compare only-one",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
