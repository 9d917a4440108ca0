//! What the numbers were measured on: the provenance block of every
//! result, the `AIGA_*` override guard, peak memory, and the counting
//! allocator behind `pipeline.allocs_per_pass`.

use aiga::util::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations (a statistic: relaxed is enough) and defers
/// to the system allocator.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `Server` workers every workload uses: one core is left to the load
/// generator.
pub fn server_workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// The `AIGA_*` overrides set in the environment. Any of them changes
/// what is measured (scalar path, branch fan-out, iteration caps), so a
/// run refuses to start while one is set.
pub fn aiga_overrides() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("AIGA_"))
        .collect();
    set.sort();
    set
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string())
}

/// `(rev, dirty)` of the checkout the benchmark runs in — only when the
/// working directory is itself a git checkout, so a run never reads
/// outside it.
fn git_state() -> (String, Json) {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    if !std::path::Path::new(".git").exists() {
        return ("unknown".to_string(), Json::Null);
    }
    let rev = git(&["rev-parse", "--short", "HEAD"])
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let dirty = git(&["status", "--porcelain"]).map_or(Json::Null, |s| Json::Bool(!s.is_empty()));
    (rev, dirty)
}

/// The provenance block: host, build and run identity.
pub fn provenance(seed: u64, seconds: f64) -> Json {
    let (rev, dirty) = git_state();
    Json::obj([
        ("nproc", Json::num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        (
            "gemm_path",
            Json::str(aiga::gpu::engine::simd::active_path().as_str()),
        ),
        ("git_rev", Json::str(rev)),
        ("git_dirty", dirty),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("seed", Json::num(seed as f64)),
        ("seconds", Json::num(seconds)),
        ("server_workers", Json::num(server_workers() as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_names_the_host_the_build_and_the_run() {
        let p = provenance(5, 12.0);
        for key in [
            "nproc",
            "cpu_model",
            "gemm_path",
            "git_rev",
            "git_dirty",
            "rustc",
            "seed",
            "seconds",
            "server_workers",
        ] {
            assert!(p.get(key).is_some(), "{key}");
        }
        assert_eq!(p.field("seed").unwrap().as_u64().unwrap(), 5);
        assert!(p
            .field("rustc")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("rustc"));
        assert!(server_workers() >= 1 && server_workers() <= nproc());
    }

    #[test]
    fn peak_rss_reads_a_positive_high_water_mark() {
        assert!(peak_rss_mib() > 1.0);
    }
}
