//! The metric tables: every name the benchmark may print, with its
//! unit and direction. `BENCHMARK.json` carries the same two lists (a
//! unit test keeps them equal); README.md holds the glossary.

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for counts and ratios of medians).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            value,
            samples,
        }
    }
}

/// Declaration of an end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before `--compare` calls it a regression.
    pub bound: f64,
}

/// Declaration of a per-layer metric.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better,
        bound,
    }
}

/// What a user of the serving stack sees (`--trace 0`).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", true, 0.25),
    e2e("throughput_rps", "req/s", false, 0.25),
    e2e("abft_overhead_x", "ratio", true, 0.25),
    e2e("caught_frac", "share", false, 0.15),
    e2e("peak_rss_mb", "MiB", true, 0.10),
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: false,
    }
}

/// Single-layer numbers from the traced run (`--trace 1`), grouped by
/// the module they price.
pub const PER_LAYER: &[PerLayer] = &[
    // gpu::engine
    lower("engine.busy_ms", "ms"),
    lower("engine.flops", "count"),
    lower("engine.bytes_computed", "count"),
    higher("engine.gflops", "gflop/s"),
    higher("engine.intensity_flop_per_byte", "flop/byte"),
    higher("engine.active_path_simd", "count"),
    lower("engine.sq64_us", "us"),
    lower("engine.sq256_us", "us"),
    lower("engine.sq512_us", "us"),
    lower("engine.m1_k1024_n1024_us", "us"),
    lower("engine.gemm128_f16_us", "us"),
    lower("engine.gemm128_bf16_us", "us"),
    lower("engine.gemm128_fp8e4m3_us", "us"),
    lower("engine.gemm128_int8_us", "us"),
    // core::schemes
    lower("schemes.busy_ms", "ms"),
    lower("schemes.overhead_x", "ratio"),
    lower("schemes.global_x_sq64", "ratio"),
    lower("schemes.one_sided_x_sq64", "ratio"),
    lower("schemes.two_sided_x_sq64", "ratio"),
    lower("schemes.repl_single_x_sq64", "ratio"),
    lower("schemes.repl_trad_x_sq64", "ratio"),
    lower("schemes.multi2_x_sq64", "ratio"),
    lower("schemes.global_x_sq256", "ratio"),
    lower("schemes.one_sided_x_sq256", "ratio"),
    lower("schemes.two_sided_x_sq256", "ratio"),
    lower("schemes.repl_single_x_sq256", "ratio"),
    lower("schemes.repl_trad_x_sq256", "ratio"),
    lower("schemes.multi2_x_sq256", "ratio"),
    higher("schemes.flagged_frac", "share"),
    higher("schemes.corrected_frac", "share"),
    lower("schemes.benign_frac", "share"),
    lower("schemes.correct_extra_ms", "ms"),
    // core::planner
    lower("planner.plan_ms", "ms"),
    lower("planner.compile_ms", "ms"),
    lower("planner.guided_vs_best_fixed_x", "ratio"),
    higher("planner.layers_at_measured_min_frac", "share"),
    lower("planner.pred_err_med", "ratio"),
    // core::pipeline
    lower("pipeline.pass_ms", "ms"),
    lower("pipeline.self_ms", "ms"),
    higher("pipeline.eff_gflops", "gflop/s"),
    lower("pipeline.seq_pass_ms", "ms"),
    higher("pipeline.branch_speedup_x", "ratio"),
    lower("pipeline.allocs_per_pass", "count"),
    // core::session
    lower("session.serve_ms", "ms"),
    lower("session.self_us", "us"),
    lower("session.cold_serve_ms", "ms"),
    lower("session.split_serve_ms", "ms"),
    lower("session.pad_waste_frac", "share"),
    higher("session.cache_hit_frac", "share"),
    // core::serve (0 on the three offline workloads: no Server there)
    lower("serve.submit_us_p50", "us"),
    lower("serve.wait_ms_p50", "ms"),
    lower("serve.queue_ms_p50", "ms"),
    lower("serve.solo_latency_ms_p50", "ms"),
    lower("serve.latency_ms_p99", "ms"),
    higher("serve.reqs_per_batch", "count"),
    higher("serve.rows_per_batch", "count"),
    higher("serve.coalesced_frac", "share"),
    lower("serve.max_queue_depth", "count"),
    lower("serve.shed_frac", "share"),
    lower("serve.rejected_frac", "share"),
    lower("serve.retries", "count"),
    lower("serve.gen_late_ms_max", "ms"),
    lower("serve.gen_late_frac", "share"),
    // nn
    lower("nn.build_net_ms", "ms"),
    lower("nn.im2col_stem_ms", "ms"),
    // dtype / fp16
    lower("dtype.decode_ns_per_elem_f16", "ns"),
    lower("dtype.decode_ns_per_elem_bf16", "ns"),
    lower("dtype.decode_ns_per_elem_fp8e4m3", "ns"),
    lower("dtype.decode_ns_per_elem_int8", "ns"),
    lower("dtype.encode_ns_per_elem_f16", "ns"),
    lower("dtype.encode_ns_per_elem_bf16", "ns"),
    lower("dtype.encode_ns_per_elem_fp8e4m3", "ns"),
    lower("dtype.encode_ns_per_elem_int8", "ns"),
    // faults
    higher("faults.campaign_trials_per_s", "1/s"),
    lower("faults.sdc_rate_global_64", "share"),
    lower("faults.sdc_rate_one_sided_64", "share"),
    // util
    lower("util.par_map_spawn_us", "us"),
    // request latency: its run-to-run spread on the host the bounds
    // were set on (up to 0.22) is too wide to gate on
    lower("latency_ms_p50", "ms"),
    lower("latency_ms_p90", "ms"),
    // the tracing itself
    lower("trace.overhead_frac", "share"),
    higher("trace.attributed_frac", "share"),
];

/// `(unit, lower_is_better)` of a declared metric.
pub fn declared(name: &str) -> Option<(&'static str, bool)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.lower_is_better))
        .chain(
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.lower_is_better)),
        )
        .find(|m| m.0 == name)
        .map(|m| (m.1, m.2))
}

/// Checks a run produced exactly the declared metric set for its mode
/// and returns the metrics in declaration order.
pub fn in_declared_order(trace: bool, mut produced: Vec<Metric>) -> Result<Vec<Metric>, String> {
    let declared: Vec<&'static str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut ordered = Vec::with_capacity(declared.len());
    for name in declared {
        let at = produced
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| format!("declared metric {name} was not measured"))?;
        ordered.push(produced.swap_remove(at));
    }
    match produced.first() {
        Some(extra) => Err(format!("measured metric {} is not declared", extra.name)),
        None => Ok(ordered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiga::util::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn better(lower_is_better: bool) -> &'static str {
        if lower_is_better {
            "lower"
        } else {
            "higher"
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_end_to_end_metrics() {
        let doc = manifest();
        let listed = doc.field("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (j, m) in listed.iter().zip(END_TO_END) {
            assert_eq!(j.field("name").unwrap().as_str().unwrap(), m.name);
            assert_eq!(j.field("unit").unwrap().as_str().unwrap(), m.unit);
            assert_eq!(
                j.field("better").unwrap().as_str().unwrap(),
                better(m.lower_is_better),
                "{}",
                m.name
            );
            assert_eq!(j.field("bound").unwrap().as_f64().unwrap(), m.bound);
            assert!(m.bound <= 0.25, "{}: the contract caps bounds", m.name);
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_per_layer_metrics() {
        let doc = manifest();
        let listed = doc.field("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (j, m) in listed.iter().zip(PER_LAYER) {
            assert_eq!(j.field("name").unwrap().as_str().unwrap(), m.name);
            assert_eq!(j.field("unit").unwrap().as_str().unwrap(), m.unit);
            assert_eq!(
                j.field("better").unwrap().as_str().unwrap(),
                better(m.lower_is_better),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_every_workload() {
        let doc = manifest();
        let listed: Vec<&str> = doc
            .field("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn names_are_unique_and_ordering_rejects_strays() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);

        let all: Vec<Metric> = END_TO_END
            .iter()
            .rev()
            .map(|m| Metric {
                name: m.name,
                value: 1.0,
                samples: 1,
            })
            .collect();
        let ordered = in_declared_order(false, all.clone()).unwrap();
        assert_eq!(ordered[0].name, "setup_s");
        assert!(in_declared_order(false, all[1..].to_vec()).is_err());
        let mut extra = all;
        extra.push(Metric {
            name: "engine.busy_ms",
            value: 1.0,
            samples: 1,
        });
        assert!(in_declared_order(false, extra).is_err());
    }
}
