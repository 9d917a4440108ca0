//! # aiga-fp16 — software half precision for the GPU substrate
//!
//! The paper's kernels multiply FP16 operands with FP32 accumulation
//! (§2.1). This crate is the FP16 half of that: a bit-accurate software
//! binary16, so the functional engine in `aiga-gpu` stores, rounds and
//! widens operands exactly as the hardware datapath would (the FP32
//! accumulation is the engine's own microkernel).
//!
//! - [`F16`]: IEEE 754 binary16 with round-to-nearest-even conversions and
//!   correctly-rounded `+ - * /` (computed through `f64`, which is safe
//!   because 53 ≥ 2·11 + 2 — double rounding through a format with at least
//!   `2p + 2` significand bits is innocuous).

pub mod half;

pub use half::F16;
