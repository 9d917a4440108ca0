//! # aiga-gpu — the analytic GPU model and the host engine
//!
//! The paper evaluates ABFT schemes inside CUTLASS matrix-multiplication
//! kernels on an NVIDIA T4. This crate rebuilds what those kernels
//! depend on, in Rust, as two halves that do not import each other.
//!
//! **The analytic GPU model** — what a scheme would *cost* on a GPU. It
//! selects schemes (`aiga-core`'s `Planner`) and regenerates the paper's
//! tables and figures; it is on no execution path.
//!
//! - [`device`]: published hardware parameters for the GPUs the paper
//!   discusses (T4, P4, V100, A100, Jetson AGX Xavier) including the
//!   compute-to-memory-bandwidth ratio (CMR) of §3.3.
//! - [`roofline`]: the roofline classification (compute vs. bandwidth
//!   bound) that drives intensity-guided selection.
//! - [`tiling`]: the kernel → threadblock → warp → thread decomposition of
//!   §2.1 (Figure 2), including per-thread tile sizes `Mt × Nt` and the
//!   per-K-step MMA/fragment accounting of Figure 3.
//! - [`occupancy`]: the register-pressure / resident-warp model that
//!   explains why traditional thread-level replication is slow (§4).
//! - [`traffic`]: a DRAM traffic model with tile reuse and an L2 term.
//! - [`timing`]: the calibrated analytical kernel timing model that maps a
//!   [`timing::KernelProfile`] (Tensor-Core FLOPs, ALU ops, DRAM bytes,
//!   register pressure, extra kernel launches) to an execution-time
//!   estimate. All calibration constants are documented in one place.
//!
//! **The host engine** — where every protected GEMM actually *runs*.
//!
//! - [`engine`]: a GEMM as a function of its operands
//!   ([`engine::gemm_into`]) — cache blocks of host-constant size
//!   computed by a register-tiled microkernel (AVX-512 or AVX2+FMA, with a
//!   byte-identical scalar oracle). A thread-level scheme is an
//!   [`engine::TileScheme`]: checksum lanes the microkernel carries
//!   beside its accumulators and a per-register-tile epilogue compare —
//!   the host analogue of the thread-level inner loop the paper modified
//!   in CUTLASS, and where `aiga-core`'s thread-level ABFT schemes run.
//!
//! [`shape`] — padded GEMM problem shapes and the
//! FLOPs/bytes/arithmetic-intensity accounting of §3.1 (Eq. 1) — is the
//! model's; the engine takes its extents from its operands, and its
//! callers use a [`GemmShape`] only as a plain `(m, n, k)` carrier.

pub mod device;
pub mod engine;
pub mod occupancy;
pub mod roofline;
pub mod shape;
pub mod tiling;
pub mod timing;
pub mod traffic;

pub use device::DeviceSpec;
pub use engine::{GemmOutput, GemmPath, Im2colView, Matrix, MatrixLayout, TileScheme, Workspace};
pub use roofline::{Bound, Roofline};
pub use shape::GemmShape;
pub use tiling::TilingConfig;
pub use timing::{Calibration, KernelProfile, TimeEstimate};
