//! `--compare <base> <new>`: do two sets of runs agree?
//!
//! Each file holds the records `--out` appends, one JSON object per
//! line. For every (workload, end-to-end metric) the medians of the two
//! sets are compared against the metric's bound; where either set's own
//! quartile spread is wider than the bound the row is *unresolved*
//! unless every run of one side beats every run of the other.

use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{median_of, quartile_spread};
use aiga::util::Json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric's two value sets. `worse_by` is the change of the
/// median in the bad direction, as a share of the base median.
pub fn judge(metric: &EndToEnd, base: &[f64], new: &[f64]) -> Verdict {
    let (mb, mn) = (median_of(base), median_of(new));
    let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if mb == 0.0 {
        sign * (mn - mb)
    } else {
        sign * (mn - mb) / mb.abs()
    };
    let noisy = quartile_spread(base).max(quartile_spread(new)) > metric.bound;
    let every = |worse: bool| {
        base.iter().all(|&b| {
            new.iter().all(|&n| {
                if worse {
                    sign * (n - b) > 0.0
                } else {
                    sign * (n - b) < 0.0
                }
            })
        })
    };
    if worse_by > metric.bound {
        if noisy && !every(true) {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if worse_by < -metric.bound {
        if noisy && !every(false) {
            Verdict::Unresolved
        } else {
            Verdict::Better
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// workload → metric → values, from the end-to-end records of a file.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn parse_runs(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |e: aiga::util::json::JsonError| format!("line {}: {e}", n + 1);
        let record = Json::parse(line).map_err(bad)?;
        if record.field("trace").map_err(bad)?.as_u64().map_err(bad)? != 0 {
            continue;
        }
        let workload = record
            .field("workload")
            .map_err(bad)?
            .as_str()
            .map_err(bad)?;
        let Json::Obj(metrics) = record.field("metrics").map_err(bad)? else {
            return Err(format!("line {}: metrics is not an object", n + 1));
        };
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m.field("value").map_err(bad)?.as_f64().map_err(bad)?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// One row of the comparison table.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    pub verdict: Verdict,
}

pub fn compare_texts(base: &str, new: &str) -> Result<Vec<Row>, String> {
    let (base, new) = (parse_runs(base)?, parse_runs(new)?);
    let mut rows = Vec::new();
    for (workload, base_metrics) in &base {
        let Some(new_metrics) = new.get(workload) else {
            return Err(format!("workload {workload} is missing from the new set"));
        };
        for metric in END_TO_END {
            let (Some(b), Some(n)) = (base_metrics.get(metric.name), new_metrics.get(metric.name))
            else {
                return Err(format!("{workload}: {} is missing from a set", metric.name));
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name,
                base: median_of(b),
                new: median_of(n),
                verdict: judge(metric, b, n),
            });
        }
    }
    if rows.is_empty() {
        return Err("no end-to-end records to compare".to_string());
    }
    Ok(rows)
}

/// Prints the table; `Ok(true)` when no row is worse.
pub fn run(base_path: &str, new_path: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let rows = compare_texts(&read(base_path)?, &read(new_path)?)?;
    println!(
        "{:<24} {:<18} {:>14} {:>14} {:>18}  verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    for r in &rows {
        println!(
            "{:<24} {:<18} {:>14.6} {:>14.6} {:>11.4} x base  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.new / r.base,
            r.verdict.label()
        );
    }
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: &EndToEnd = &EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        lower_is_better: true,
        bound: 0.05,
    };
    const THROUGHPUT: &EndToEnd = &EndToEnd {
        name: "throughput_rps",
        unit: "req/s",
        lower_is_better: false,
        bound: 0.05,
    };

    #[test]
    fn tight_sets_resolve_to_better_same_or_worse() {
        let base = [100.0, 100.5, 99.5, 100.2, 99.8];
        assert_eq!(judge(LATENCY, &base, &[101.0, 100.0, 102.0]), Verdict::Same);
        assert_eq!(
            judge(LATENCY, &base, &[110.0, 111.0, 109.0]),
            Verdict::Worse
        );
        assert_eq!(judge(LATENCY, &base, &[90.0, 91.0, 89.0]), Verdict::Better);
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            judge(THROUGHPUT, &base, &[110.0, 111.0, 109.0]),
            Verdict::Better
        );
        assert_eq!(
            judge(THROUGHPUT, &base, &[90.0, 91.0, 89.0]),
            Verdict::Worse
        );
        // Single runs have no spread: the bound alone decides.
        assert_eq!(judge(LATENCY, &[100.0], &[104.0]), Verdict::Same);
        assert_eq!(judge(LATENCY, &[100.0], &[106.0]), Verdict::Worse);
    }

    #[test]
    fn noisy_sets_are_unresolved_unless_every_run_agrees() {
        // Base spread (IQR/median ≈ 0.3) is far wider than the bound.
        let base = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            judge(LATENCY, &base, &[100.0, 95.0, 105.0]),
            Verdict::Unresolved
        );
        // Medians differ by more than the bound but the sets overlap.
        assert_eq!(
            judge(LATENCY, &base, &[115.0, 118.0, 112.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(LATENCY, &base, &[70.0, 85.0, 88.0]),
            Verdict::Unresolved
        );
        // Every new run beyond every base run settles it despite noise.
        assert_eq!(
            judge(LATENCY, &base, &[130.0, 140.0, 150.0]),
            Verdict::Worse
        );
        assert_eq!(judge(LATENCY, &base, &[50.0, 60.0, 70.0]), Verdict::Better);
    }

    fn record(workload: &str, trace: u64, overhead_x: f64) -> String {
        let metrics = Json::Obj(
            END_TO_END
                .iter()
                .map(|m| {
                    let value = if m.name == "abft_overhead_x" {
                        overhead_x
                    } else {
                        1.0
                    };
                    (
                        m.name.to_string(),
                        Json::obj([("value", Json::num(value)), ("unit", Json::str(m.unit))]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("workload", Json::str(workload)),
            ("trace", Json::num(trace as f64)),
            ("metrics", metrics),
        ])
        .render()
    }

    #[test]
    fn files_compare_per_workload_and_skip_traced_records() {
        let base = [
            record("a", 0, 10.0),
            record("a", 0, 10.1),
            record("b", 0, 5.0),
        ]
        .join("\n");
        let new = [
            record("a", 0, 10.05),
            record("b", 0, 9.0),
            String::new(),
            record("b", 1, 999.0),
        ]
        .join("\n");
        let rows = compare_texts(&base, &new).unwrap();
        assert_eq!(rows.len(), 2 * END_TO_END.len());
        let verdict_of = |w: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.metric == m)
                .unwrap()
                .verdict
        };
        assert_eq!(verdict_of("a", "abft_overhead_x"), Verdict::Same);
        assert_eq!(verdict_of("b", "abft_overhead_x"), Verdict::Worse);
        assert_eq!(verdict_of("b", "setup_s"), Verdict::Same);
        assert!(
            compare_texts(&base, &record("a", 0, 1.0)).is_err(),
            "b missing"
        );
        assert!(compare_texts("not json", &new).is_err());
    }
}
