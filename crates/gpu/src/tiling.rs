//! Hierarchical GEMM tiling (§2.1, Figure 2).
//!
//! High-performance GEMM kernels decompose the problem across
//! threadblocks, warps, and threads. The quantities this module derives —
//! especially the per-thread tile `Mt × Nt` and the per-K-step MMA count
//! `Mt·Nt/2` — are exactly the units the paper uses in Table 1 to compare
//! redundant-execution schemes, and the register accounting feeds the
//! occupancy model that explains §4's replication slowdown.
//!
//! Per Figure 3, one "step along the K dimension" advances `k` by 2: each
//! thread loads an `Mt × 2` chunk of `At` and a `2 × Nt` chunk of `Bt`
//! and participates in `Mt·Nt/2` MMAs.
//!
//! This is the analytic model of a GPU kernel: the timing, occupancy
//! and traffic models price it and the `fig*/tab*` bins report it. The
//! host engine does not read it — it blocks by its own constants
//! (`engine::BLOCK_M`/`BLOCK_N`).

use crate::device::DeviceSpec;
use crate::shape::GemmShape;

/// K-extent of one thread step (Figure 3).
pub const STEP_K: u64 = 2;

/// Largest per-thread tile rows (`Mt`) any valid tiling can produce:
/// warp tiles cap at 64 rows (the register file bounds warp tiles in
/// real CUTLASS configurations too), so `Mt = 2·(64/16) = 8`.
pub const MAX_THREAD_MT: usize = 8;
/// Largest per-thread tile columns (`Nt`): `2·(64/8) = 16`.
pub const MAX_THREAD_NT: usize = 16;

/// One tiling configuration for the hierarchy of Figure 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TilingConfig {
    /// Threadblock tile rows (`Mb`).
    pub block_m: u64,
    /// Threadblock tile columns (`Nb`).
    pub block_n: u64,
    /// Threadblock K-slice staged through shared memory (`Kb`).
    pub block_k: u64,
    /// Warp tile rows (`Mw`), a multiple of the MMA's 16.
    pub warp_m: u64,
    /// Warp tile columns (`Nw`), a multiple of the MMA's 8.
    pub warp_n: u64,
}

impl TilingConfig {
    /// Validates invariant relationships between the levels.
    pub fn validate(&self) {
        assert!(
            self.block_m.is_multiple_of(self.warp_m) && self.block_n.is_multiple_of(self.warp_n),
            "block tile must be a whole number of warp tiles"
        );
        assert!(
            self.warp_m.is_multiple_of(16) && self.warp_n.is_multiple_of(8),
            "warp tile must be a whole number of m16n8k8 tiles"
        );
        assert!(
            self.block_k.is_multiple_of(8),
            "block K-slice must cover whole MMAs"
        );
        assert!(
            self.thread_mt() as usize <= MAX_THREAD_MT
                && self.thread_nt() as usize <= MAX_THREAD_NT,
            "warp tile exceeds the register-file bound (warp_m <= 64, warp_n <= 64)"
        );
    }

    /// Warps per threadblock.
    pub fn warps_per_block(&self) -> u64 {
        (self.block_m / self.warp_m) * (self.block_n / self.warp_n)
    }

    /// Threads per threadblock.
    pub fn threads_per_block(&self) -> u64 {
        self.warps_per_block() * 32
    }

    /// Per-thread tile rows `Mt`: each lane owns 2 rows per 16-row MMA
    /// granule of its warp tile.
    pub fn thread_mt(&self) -> u64 {
        2 * (self.warp_m / 16)
    }

    /// Per-thread tile columns `Nt`: each lane owns 2 columns per 8-column
    /// MMA granule of its warp tile.
    pub fn thread_nt(&self) -> u64 {
        2 * (self.warp_n / 8)
    }

    /// FP32 accumulator registers per thread (`Mt·Nt`).
    pub fn accumulators_per_thread(&self) -> u64 {
        self.thread_mt() * self.thread_nt()
    }

    /// Baseline MMAs a thread participates in per K-step (Table 1's unit).
    pub fn mmas_per_thread_step(&self) -> u64 {
        self.accumulators_per_thread() / 2
    }

    /// Grid dimensions (`blocks_m, blocks_n`) for a padded shape.
    pub fn grid(&self, shape: GemmShape) -> (u64, u64) {
        let p = shape.padded_to_mma();
        (p.m.div_ceil(self.block_m), p.n.div_ceil(self.block_n))
    }

    /// Total threadblocks launched for a shape.
    pub fn total_blocks(&self, shape: GemmShape) -> u64 {
        let (gm, gn) = self.grid(shape);
        gm * gn
    }

    /// K-steps each thread walks for a padded shape.
    pub fn k_steps(&self, shape: GemmShape) -> u64 {
        shape.padded_to_mma().k / STEP_K
    }

    /// Baseline register estimate per thread: FP32 accumulators plus
    /// double-buffered FP16 operand fragments (two packed halves per
    /// register) plus a fixed allowance for addresses, loop counters, and
    /// predicates. A redundancy scheme adds its own registers on top
    /// (traditional replication doubles the accumulators — the §4
    /// occupancy cliff).
    pub fn base_regs_per_thread(&self) -> u64 {
        const ADDRESSING_ALLOWANCE: u64 = 40;
        let accum = self.accumulators_per_thread();
        let operand_frags = self.thread_mt() + self.thread_nt(); // 2 buffers × (Mt+Nt) halves / 2 per reg
        ADDRESSING_ALLOWANCE + accum + operand_frags
    }

    /// The three CUTLASS-style configurations the selection heuristic
    /// chooses among (large/medium/small tiles).
    pub fn candidates() -> [TilingConfig; 3] {
        [
            TilingConfig {
                block_m: 128,
                block_n: 128,
                block_k: 32,
                warp_m: 64,
                warp_n: 64,
            },
            TilingConfig {
                block_m: 64,
                block_n: 64,
                block_k: 32,
                warp_m: 32,
                warp_n: 32,
            },
            TilingConfig {
                block_m: 32,
                block_n: 32,
                block_k: 16,
                warp_m: 16,
                warp_n: 16,
            },
        ]
    }

    /// Picks the candidate that best balances tile waste (padding the grid
    /// out to whole block tiles) against having enough threadblocks to
    /// occupy the device — mirroring what the CUTLASS profiler's
    /// pre-deployment sweep settles on (§5.3).
    pub fn select(shape: GemmShape, device: &DeviceSpec) -> TilingConfig {
        let p = shape.padded_to_mma();
        let mut best = Self::candidates()[0];
        let mut best_score = f64::MIN;
        for cfg in Self::candidates() {
            let (gm, gn) = cfg.grid(p);
            let covered = (gm * cfg.block_m) * (gn * cfg.block_n);
            let waste = covered as f64 / (p.m * p.n) as f64;
            let blocks = gm * gn;
            // Full marks once there are ~2 blocks per SM to hide latency;
            // square-root softens the penalty for moderate undersubscription.
            let util = (blocks as f64 / (2.0 * device.sm_count as f64))
                .min(1.0)
                .sqrt();
            // Bigger tiles amortize operand loads (more data reuse per
            // shared-memory stage); mild superlinear bonus.
            let reuse_bonus = ((cfg.block_m * cfg.block_n) as f64 / 1024.0).powf(0.12);
            let score = util / waste * reuse_bonus;
            if score > best_score {
                best_score = score;
                best = cfg;
            }
        }
        best.validate();
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_configs_are_internally_consistent() {
        for cfg in TilingConfig::candidates() {
            cfg.validate();
            // Per-thread accumulators × threads = block tile area.
            assert_eq!(
                cfg.accumulators_per_thread() * cfg.threads_per_block(),
                cfg.block_m * cfg.block_n,
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn large_config_matches_paper_scale_thread_tiles() {
        let big = TilingConfig::candidates()[0];
        assert_eq!(big.thread_mt(), 8);
        assert_eq!(big.thread_nt(), 16);
        assert_eq!(big.mmas_per_thread_step(), 64);
        assert_eq!(big.warps_per_block(), 4);
        assert_eq!(big.threads_per_block(), 128);
    }

    #[test]
    fn grid_covers_the_padded_problem() {
        let cfg = TilingConfig::candidates()[0];
        let shape = GemmShape::new(300, 200, 64);
        let (gm, gn) = cfg.grid(shape);
        assert!(gm * cfg.block_m >= 304); // padded M = 304
        assert!(gn * cfg.block_n >= 200);
        assert_eq!((gm, gn), (3, 2));
    }

    #[test]
    fn selection_prefers_small_tiles_for_small_problems() {
        let t4 = DeviceSpec::t4();
        let small = TilingConfig::select(GemmShape::square(32), &t4);
        assert_eq!(small.block_m, 32, "tiny problem should use tiny tiles");
        let big = TilingConfig::select(GemmShape::square(2048), &t4);
        assert_eq!(big.block_m, 128, "large problem should use large tiles");
    }

    #[test]
    fn selection_prefers_parallelism_for_skinny_layers() {
        // A conv layer with huge M and small N: plenty of blocks either
        // way, so the large tile's reuse should win on the M side.
        let t4 = DeviceSpec::t4();
        let cfg = TilingConfig::select(GemmShape::new(100_000, 64, 64), &t4);
        assert!(cfg.block_n <= 64, "should not waste an oversized N tile");
    }

    #[test]
    fn k_steps_walk_in_pairs() {
        let cfg = TilingConfig::candidates()[1];
        assert_eq!(cfg.k_steps(GemmShape::new(64, 64, 64)), 32);
        assert_eq!(cfg.k_steps(GemmShape::new(64, 64, 60)), 32); // padded to 64
    }

    #[test]
    fn register_estimate_is_dominated_by_accumulators() {
        let big = TilingConfig::candidates()[0];
        let regs = big.base_regs_per_thread();
        assert!(regs > big.accumulators_per_thread());
        assert!(regs < 256, "base config should fit the 255-reg ISA limit");
    }
}
