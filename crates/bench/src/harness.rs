//! A tiny wall-clock bench harness for the `harness = false` bench
//! targets (the build environment has no Criterion; this preserves
//! `cargo bench` with zero dependencies).
//!
//! Besides the human-readable stdout table, a [`Recorder`] collects
//! results and writes them as machine-readable JSON (`BENCH_<suite>.json`
//! at the workspace root), seeding the repo's performance trajectory:
//! each run records
//! per-bench median/mean nanoseconds, iteration counts, the git
//! revision (`<HEAD>+<hash of the edits>` when the tree has
//! uncommitted changes or untracked files — the numbers then belong to
//! those edits on top
//! of the named commit) and the host they were measured on, so
//! before/after comparisons are a `diff` away.
//!
//! The `AIGA_BENCH_MAX_ITERS` environment variable caps the calibrated
//! iteration count — CI's smoke run sets it low so every bench target
//! executes end to end (catching panics) without burning minutes.

use std::time::{Duration, Instant};

use aiga_gpu::engine::simd;
use aiga_util::json::Json;

/// One bench's measurements, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Bench name as printed.
    pub name: String,
    /// Measured iterations (after one warm-up call).
    pub iters: usize,
    /// Median per-iteration time, ns.
    pub median_ns: f64,
    /// Mean per-iteration time, ns.
    pub mean_ns: f64,
    /// Unit of the recorded numbers. Timed rows are `"ns"` and
    /// serialize as `median_ns`/`mean_ns`; externally-recorded rows in
    /// any other unit serialize as a tagged `value` instead, so JSON
    /// consumers never mistake a throughput for a latency.
    pub unit: String,
}

/// Runs `f` repeatedly and prints median/mean per-iteration time.
///
/// Auto-calibrates the iteration count to target ~0.5 s of measurement
/// (bounded to [5, 10_000] iterations, further capped by
/// `AIGA_BENCH_MAX_ITERS`) after one warm-up call.
pub fn bench(name: &str, mut f: impl FnMut()) -> BenchResult {
    // Warm-up + calibration.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let mut iters =
        (Duration::from_millis(500).as_nanos() / once.as_nanos()).clamp(5, 10_000) as usize;
    if let Some(cap) = max_iters_from_env() {
        iters = iters.min(cap);
    }

    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
    println!(
        "{name:<44} {:>12} iters   median {:>12}   mean {:>12}",
        iters,
        format_time(median),
        format_time(mean)
    );
    BenchResult {
        name: name.to_string(),
        iters,
        median_ns: median * 1e9,
        mean_ns: mean * 1e9,
        unit: "ns".to_string(),
    }
}

fn max_iters_from_env() -> Option<usize> {
    std::env::var("AIGA_BENCH_MAX_ITERS")
        .ok()?
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
}

/// Collects [`bench()`] results for one suite and writes them as
/// `BENCH_<suite>.json`.
pub struct Recorder {
    suite: String,
    results: Vec<BenchResult>,
    over_limit: Vec<String>,
}

impl Recorder {
    /// Creates a recorder for a named suite (e.g. `"engine"`).
    pub fn new(suite: &str) -> Self {
        Recorder {
            suite: suite.to_string(),
            results: Vec::new(),
            over_limit: Vec::new(),
        }
    }

    /// A performance gate: a row that is over its limit fails the run,
    /// but in [`enforce_gates`](Self::enforce_gates), after the file is
    /// written — so the record shows by how much, and the rows behind
    /// the failing one are not lost.
    pub fn gate(&mut self, within_limit: bool, message: String) {
        if !within_limit {
            println!("GATE FAILED: {message}");
            self.over_limit.push(message);
        }
    }

    /// Panics if any [`gate`](Self::gate) failed.
    pub fn enforce_gates(&self) {
        assert!(
            self.over_limit.is_empty(),
            "{} gate(s) over their limit:\n{}",
            self.over_limit.len(),
            self.over_limit.join("\n")
        );
    }

    /// Runs and records one bench, returning the measurement (e.g. to
    /// derive throughput from the median).
    pub fn bench(&mut self, name: &str, f: impl FnMut()) -> &BenchResult {
        self.results.push(bench(name, f));
        self.results.last().expect("just pushed")
    }

    /// Records an externally-measured nanosecond value (e.g. a latency
    /// percentile read off server statistics) as a row with a single
    /// pseudo-iteration, so it lands in `BENCH_<suite>.json` alongside
    /// the timed rows.
    pub fn record_ns(&mut self, name: &str, ns: f64) {
        self.record_value(name, ns, "ns");
    }

    /// Records an externally-measured value in an arbitrary unit (e.g.
    /// `"req_per_s"` throughput). Non-`"ns"` rows serialize with an
    /// explicit `value` + `unit` pair instead of `median_ns`, keeping
    /// the JSON schema honest for latency-diffing tools.
    pub fn record_value(&mut self, name: &str, value: f64, unit: &str) {
        println!("{name:<44}     recorded  {value:>14.1} {unit}");
        self.results.push(BenchResult {
            name: name.to_string(),
            iters: 1,
            median_ns: value,
            mean_ns: value,
            unit: unit.to_string(),
        });
    }

    /// Results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// The JSON document [`Self::write`] persists.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("suite", Json::str(self.suite.clone())),
            ("git_rev", Json::str(git_rev())),
            (
                "host",
                Json::obj([
                    (
                        "cores",
                        Json::num(
                            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
                        ),
                    ),
                    ("gemm_path", Json::str(simd::active_path().as_str())),
                    // What dispatch would pick unforced, and the CPU
                    // features it picked from.
                    ("detected_path", Json::str(simd::detect_path().as_str())),
                    (
                        "cpu_features",
                        Json::Arr(simd::cpu_features().iter().map(|&f| Json::str(f)).collect()),
                    ),
                ]),
            ),
            (
                "results",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|r| {
                            if r.unit == "ns" {
                                Json::obj([
                                    ("name", Json::str(r.name.clone())),
                                    ("iters", Json::num(r.iters as f64)),
                                    ("median_ns", Json::num(r.median_ns)),
                                    ("mean_ns", Json::num(r.mean_ns)),
                                ])
                            } else {
                                Json::obj([
                                    ("name", Json::str(r.name.clone())),
                                    ("iters", Json::num(r.iters as f64)),
                                    ("value", Json::num(r.median_ns)),
                                    ("unit", Json::str(r.unit.clone())),
                                ])
                            }
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes `BENCH_<suite>.json` to the workspace root (falling back
    /// to the working directory outside cargo) and returns its path.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let path = output_dir().join(format!("BENCH_{}.json", self.suite));
        std::fs::write(&path, self.to_json().render())?;
        println!("wrote {}", path.display());
        Ok(path)
    }
}

/// Under `cargo bench` the process cwd is the *package* directory;
/// results belong at the workspace root: the innermost ancestor of
/// `CARGO_MANIFEST_DIR` whose `Cargo.toml` declares a `[workspace]`
/// (never walking past it into unrelated outer projects).
fn output_dir() -> std::path::PathBuf {
    let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") else {
        return std::path::PathBuf::from(".");
    };
    for dir in std::path::Path::new(&manifest).ancestors() {
        let toml = dir.join("Cargo.toml");
        if std::fs::read_to_string(&toml)
            .map(|t| t.contains("[workspace]"))
            .unwrap_or(false)
        {
            return dir.to_path_buf();
        }
    }
    std::path::PathBuf::from(manifest)
}

/// Runs `git args`, feeding it `stdin`, and returns its stdout if it
/// succeeded.
fn git(args: &[&str], stdin: &[u8]) -> Option<Vec<u8>> {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut child = Command::new("git")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    // Dropped at the end of the statement: git sees end of input.
    child.stdin.take()?.write_all(stdin).ok()?;
    let out = child.wait_with_output().ok()?;
    out.status.success().then_some(out.stdout)
}

/// The short revision the numbers were built from. With uncommitted
/// edits it is `<HEAD>+<diff>`, `<diff>` the short object name of `git
/// diff HEAD` (`git diff HEAD | git hash-object --stdin | cut -c1-7`):
/// a bench recorded before its commit exists names the parent it was
/// built on and exactly the edits it measured, so two recordings of the
/// same tree carry the same name. Untracked files (not ignored) are not
/// in the diff, so their paths and their contents' object names are
/// hashed after it: a new source file that is not `git add`ed yet still
/// marks the tree as edited.
fn git_rev() -> String {
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"], &[]) else {
        return "unknown".to_string();
    };
    let rev = String::from_utf8_lossy(&rev).trim().to_string();
    let mut edits = git(&["diff", "HEAD"], &[]).unwrap_or_default();
    let untracked = git(
        &[
            "ls-files",
            "-z",
            "--others",
            "--exclude-standard",
            "--",
            ":/",
        ],
        &[],
    )
    .unwrap_or_default();
    if !untracked.is_empty() {
        let listing = String::from_utf8_lossy(&untracked).into_owned();
        let mut args = vec!["hash-object", "--"];
        args.extend(listing.split('\0').filter(|p| !p.is_empty()));
        edits.extend_from_slice(&untracked);
        edits.extend(git(&args, &[]).unwrap_or_default());
    }
    if edits.is_empty() {
        return rev;
    }
    let hash = git(&["hash-object", "--stdin"], &edits).unwrap_or_default();
    match String::from_utf8_lossy(&hash).get(..7) {
        Some(short) => format!("{rev}+{short}"),
        None => format!("{rev}+unhashed"),
    }
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} us", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_numbers() {
        let r = bench("harness/self_test", || {
            std::hint::black_box(1 + 1);
        });
        // >= 1, not >= 5: AIGA_BENCH_MAX_ITERS (the CI smoke cap) may be
        // set in the environment running this test.
        assert!(r.iters >= 1);
        assert!(r.median_ns >= 0.0 && r.mean_ns >= 0.0);
    }

    #[test]
    fn recorder_renders_parseable_json() {
        let mut rec = Recorder::new("selftest");
        rec.bench("a", || {
            std::hint::black_box(2 * 2);
        });
        rec.record_value("b", 123.5, "req_per_s");
        let text = rec.to_json().render();
        let parsed = Json::parse(&text).expect("round-trips");
        assert_eq!(parsed.field("suite").unwrap().as_str().unwrap(), "selftest");
        let host = parsed.field("host").unwrap();
        assert!(host.field("cores").unwrap().as_f64().unwrap() >= 1.0);
        for path in ["gemm_path", "detected_path"] {
            assert!(!host.field(path).unwrap().as_str().unwrap().is_empty());
        }
        // A SIMD path is only ever detected from a feature list.
        let features = host.field("cpu_features").unwrap().as_arr().unwrap();
        assert!(!simd::detect_path().is_simd() || !features.is_empty());
        let results = parsed.field("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].field("name").unwrap().as_str().unwrap(), "a");
        assert!(results[0].field("median_ns").unwrap().as_f64().unwrap() >= 0.0);
        // Non-ns rows carry a tagged value instead of median_ns, so
        // latency-diffing tools never misread a throughput.
        assert!(results[1].field("median_ns").is_err());
        assert_eq!(results[1].field("value").unwrap().as_f64().unwrap(), 123.5);
        assert_eq!(
            results[1].field("unit").unwrap().as_str().unwrap(),
            "req_per_s"
        );
    }

    #[test]
    fn git_rev_names_the_head_and_a_hash_of_the_edits() {
        // Whatever state the tree is in: a bare short rev, or one with
        // the diff's seven hex digits after a `+` (or no git at all).
        let rev = git_rev();
        let hex = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_hexdigit());
        match rev.split_once('+') {
            _ if rev == "unknown" => {}
            Some((head, diff)) => assert!(hex(head) && hex(diff) && diff.len() == 7, "{rev}"),
            None => assert!(hex(&rev), "{rev}"),
        }
        assert_eq!(git_rev(), rev, "a tree names itself the same way twice");
    }
}
