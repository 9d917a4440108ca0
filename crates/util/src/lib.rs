//! # aiga-util — dependency-free workspace utilities
//!
//! The build environment has no access to crates.io, so the handful of
//! external crates the reproduction would normally lean on are replaced
//! by small, self-contained implementations:
//!
//! - [`rng`]: a deterministic SplitMix64-based pseudo-random generator
//!   (replaces `rand`). Everything that draws random matrices, fault
//!   sites, or property-test cases seeds one of these, so every run is
//!   reproducible.
//! - [`team`]: the process-wide fork-join team — the one owner of
//!   compute threads below the serving front-end (replaces `rayon`'s
//!   global pool): `run_with(states, tasks, f)` spreads a region's tasks
//!   over the caller and the parked workers, one state each, or runs it
//!   inline when nested.
//! - [`par`]: a parallel map over slices on that team (replaces
//!   `rayon`'s `par_iter().map().collect()` pattern).
//! - [`json`]: a minimal JSON value type with a recursive-descent parser
//!   and a round-trip-safe writer (replaces `serde`/`serde_json` for the
//!   plan-serialization API).
//! - [`sync`]: a bounded, closable MPMC queue (replaces
//!   `crossbeam-channel`/`flume`) — the admission queue of the
//!   `aiga::serve` front-end.
//! - [`hist`]: a fixed-bin log2 latency histogram with lock-free
//!   recording and p50/p95/p99 readout (replaces `hdrhistogram`).

pub mod hist;
pub mod json;
pub mod par;
pub mod rng;
pub mod sync;
pub mod team;

pub use hist::LatencyHistogram;
pub use json::Json;
pub use par::{as_worker, effective_workers, par_map, par_map_with};
pub use rng::Rng64;
pub use sync::{PushError, SyncQueue};
