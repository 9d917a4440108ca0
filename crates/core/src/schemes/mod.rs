//! All redundant-execution schemes the paper designs or compares.
//!
//! Table 1 summarizes the per-K-step costs each GPU thread pays — the
//! analytic model ([`Scheme::extra_mmas_per_step`],
//! [`Scheme::checksum_ops_per_step`]) the timing model and the
//! reproduction bins price:
//!
//! | scheme            | extra Tensor Core MMAs | checksum ops    |
//! |-------------------|------------------------|-----------------|
//! | replication       | `Mt·Nt / 2`            | 0               |
//! | two-sided ABFT    | 1                      | `O(Mt + Nt)`    |
//! | one-sided ABFT    | `Mt / 2`               | `O(Nt)`         |
//!
//! Global ABFT pays none of these in the main kernel; its costs are a
//! fused epilogue plus a separate reduce-and-compare kernel (§2.5).
//!
//! On the host the four thread-level schemes execute as
//! [`TileScheme`]s ([`Scheme::tile_scheme`]): redundant accumulators
//! the engine's microkernel carries per `MICRO_MR × MICRO_NR` register
//! tile — the unit that plays the GPU thread's role here — and a tile
//! epilogue compare. Per K element of one register tile (64 data
//! FMAs):
//!
//! | scheme            | redundant FMAs | staged once per run | compare per tile |
//! |-------------------|----------------|---------------------|------------------|
//! | one-sided ABFT    | 16 (+16 magnitude) | A strip sums    | 16 column sums   |
//! | two-sided ABFT    | 1 (+1 magnitude)   | A strip + B tile sums | 1 tile sum |
//! | replication       | 64 (second pass)   | —               | 64 cells / 1 sum |
//!
//! Each module documents its scheme's host form and derives its
//! threshold; this module maps scheme ids onto them.

mod global;
mod multi;
mod replication;
mod thread_one_sided;
mod thread_two_sided;

pub use global::{GlobalAbft, GlobalVerdict};
pub use multi::{MultiChecksumAbft, MultiVerdict};

use crate::tolerance::{self, U32};
use aiga_gpu::engine::{Redundancy, TileScheme};
use aiga_gpu::TilingConfig;

/// `lanes` under the analytical tolerance with `rounds32` f32 roundings
/// charged against the check's magnitude.
fn analytical(lanes: Redundancy, rounds32: f64) -> TileScheme {
    let (slope, floor) = tolerance::linear(rounds32);
    TileScheme {
        lanes,
        slope,
        floor,
    }
}

/// Higham's `γ_n = n·u / (1 − n·u)` in units of `u = 2⁻²⁴`: the
/// round count that makes an `n`-rounding first-order bound hold to all
/// orders.
fn gamma_rounds(n: usize) -> f64 {
    let n = n as f64;
    n / (1.0 - n * U32)
}

/// Identifier for every scheme the evaluation compares.
///
/// The closed set below covers the paper's schemes plus the §2.4
/// multi-checksum extension; execution and cost behavior attach to these
/// ids as closed matches ([`Scheme::bind`], [`Scheme::apply_cost`], in
/// [`crate::kernel`]), so the selector and the pipeline never enumerate
/// schemes and every id that parses runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No redundancy (the `To` baseline of §6.2).
    Unprotected,
    /// Kernel-level ABFT per Hari et al. (§2.5).
    GlobalAbft,
    /// One-sided thread-level ABFT (§5.2.2) — the variant intensity-
    /// guided ABFT deploys for bandwidth-bound layers.
    ThreadLevelOneSided,
    /// Two-sided thread-level ABFT (§5.2.2).
    ThreadLevelTwoSided,
    /// Thread-level replication with a single shared redundant
    /// accumulator set (§4, "replicated MMA, single accumulation").
    ReplicationSingleAcc,
    /// Traditional thread-level replication with fully duplicated
    /// accumulators (§4) — the occupancy-cliff variant.
    ReplicationTraditional,
    /// Multi-checksum global ABFT with the given number of independent
    /// checksum rounds (§2.4 extension; detects up to `rounds` faults in
    /// distinct rows).
    MultiChecksum(u8),
}

/// Error returned when parsing a scheme id fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSchemeError {
    /// The rejected input.
    pub input: String,
}

impl std::fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheme `{}` (expected one of: unprotected, global-abft, \
             thread-level-one-sided, thread-level-two-sided, replication-single-acc, \
             replication-traditional, multi-checksum-<rounds>)",
            self.input
        )
    }
}

impl std::error::Error for ParseSchemeError {}

impl std::str::FromStr for Scheme {
    type Err = ParseSchemeError;

    /// Parses the stable kebab-case id produced by [`Scheme`]'s `Display`
    /// implementation (round-trip safe), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_ascii_lowercase();
        if let Some(rounds) = norm.strip_prefix("multi-checksum-") {
            return rounds
                .parse::<u8>()
                .ok()
                .filter(|&r| r >= 1)
                .map(Scheme::MultiChecksum)
                .ok_or_else(|| ParseSchemeError { input: s.into() });
        }
        match norm.as_str() {
            "unprotected" => Ok(Scheme::Unprotected),
            "global-abft" => Ok(Scheme::GlobalAbft),
            "thread-level-one-sided" => Ok(Scheme::ThreadLevelOneSided),
            "thread-level-two-sided" => Ok(Scheme::ThreadLevelTwoSided),
            "replication-single-acc" => Ok(Scheme::ReplicationSingleAcc),
            "replication-traditional" => Ok(Scheme::ReplicationTraditional),
            _ => Err(ParseSchemeError { input: s.into() }),
        }
    }
}

impl Scheme {
    /// All redundancy schemes (everything but the unprotected baseline).
    pub fn all_protected() -> [Scheme; 5] {
        [
            Scheme::GlobalAbft,
            Scheme::ThreadLevelOneSided,
            Scheme::ThreadLevelTwoSided,
            Scheme::ReplicationSingleAcc,
            Scheme::ReplicationTraditional,
        ]
    }

    /// The two candidates intensity-guided ABFT selects between (§5.3).
    pub fn intensity_guided_candidates() -> [Scheme; 2] {
        [Scheme::GlobalAbft, Scheme::ThreadLevelOneSided]
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Unprotected => "Unprotected",
            Scheme::GlobalAbft => "Global ABFT",
            Scheme::ThreadLevelOneSided => "Thread-level ABFT (one-sided)",
            Scheme::ThreadLevelTwoSided => "Thread-level ABFT (two-sided)",
            Scheme::ReplicationSingleAcc => "Thread-level replication",
            Scheme::ReplicationTraditional => "Thread-level replication (traditional)",
            Scheme::MultiChecksum(_) => "Global ABFT (multi-checksum)",
        }
    }

    /// A stable small integer distinguishing schemes — useful for
    /// deriving per-scheme seeds (`Scheme` carries data, so a plain `as`
    /// cast is unavailable).
    pub fn ordinal(self) -> u64 {
        match self {
            Scheme::Unprotected => 0,
            Scheme::GlobalAbft => 1,
            Scheme::ThreadLevelOneSided => 2,
            Scheme::ThreadLevelTwoSided => 3,
            Scheme::ReplicationSingleAcc => 4,
            Scheme::ReplicationTraditional => 5,
            Scheme::MultiChecksum(rounds) => 6 + rounds as u64,
        }
    }

    /// The scheme as the engine executes it, for a GEMM whose padded
    /// inner dimension is `k`: the lanes its register tiles carry and
    /// the threshold their epilogue compares against. Schemes that do no
    /// thread-level work map to [`TileScheme::NONE`] — the baseline and
    /// the multi-checksum extension, whose check reads the operands
    /// after the run — except global ABFT, whose run leaves the partial
    /// sums its check combines ([`Redundancy::GlobalSums`]).
    pub fn tile_scheme(self, k: usize) -> TileScheme {
        match self {
            Scheme::Unprotected | Scheme::MultiChecksum(_) => TileScheme::NONE,
            Scheme::GlobalAbft => TileScheme {
                lanes: Redundancy::GlobalSums,
                ..TileScheme::NONE
            },
            Scheme::ThreadLevelOneSided => thread_one_sided::tile_scheme(k),
            Scheme::ThreadLevelTwoSided => thread_two_sided::tile_scheme(k),
            Scheme::ReplicationSingleAcc => replication::single_acc_tile_scheme(),
            Scheme::ReplicationTraditional => replication::traditional_tile_scheme(),
        }
    }

    /// Extra Tensor-Core MMA participations per thread per K-step
    /// (Table 1, first row) for a tiling.
    pub fn extra_mmas_per_step(self, tiling: &TilingConfig) -> u64 {
        let (mt, nt) = (tiling.thread_mt(), tiling.thread_nt());
        match self {
            Scheme::Unprotected | Scheme::GlobalAbft | Scheme::MultiChecksum(_) => 0,
            Scheme::ThreadLevelOneSided => mt / 2,
            Scheme::ThreadLevelTwoSided => 1,
            Scheme::ReplicationSingleAcc | Scheme::ReplicationTraditional => mt * nt / 2,
        }
    }

    /// Checksum-generation ALU operations (HADD2-class, so two FP16 adds
    /// per op) per thread per K-step (Table 1, second row).
    pub fn checksum_ops_per_step(self, tiling: &TilingConfig) -> u64 {
        let (mt, nt) = (tiling.thread_mt(), tiling.thread_nt());
        match self {
            Scheme::Unprotected | Scheme::GlobalAbft | Scheme::MultiChecksum(_) => 0,
            // One B-side checksum: Nt/2 packed adds per k-lane pair.
            Scheme::ThreadLevelOneSided => nt / 2,
            // Both checksums — the O(Mt + Nt) term motivating §5.2.2.
            Scheme::ThreadLevelTwoSided => mt + nt,
            Scheme::ReplicationSingleAcc | Scheme::ReplicationTraditional => 0,
        }
    }

    /// Extra registers per thread the scheme holds live.
    pub fn extra_regs(self, tiling: &TilingConfig) -> u64 {
        let (mt, nt) = (tiling.thread_mt(), tiling.thread_nt());
        match self {
            Scheme::Unprotected | Scheme::GlobalAbft | Scheme::MultiChecksum(_) => 0,
            // Mt ABFT accumulators plus the packed B-checksum register.
            Scheme::ThreadLevelOneSided => mt + 2,
            // One ABFT accumulator + two packed checksum registers.
            Scheme::ThreadLevelTwoSided => 4,
            // Four shared redundant accumulators (§4's fix).
            Scheme::ReplicationSingleAcc => 4,
            // Fully duplicated accumulators — the occupancy cliff.
            Scheme::ReplicationTraditional => mt * nt,
        }
    }

    /// Whether the scheme's redundant work lives inside each thread
    /// (shares the thread's loads; no extra memory traffic).
    pub fn is_thread_level(self) -> bool {
        matches!(
            self,
            Scheme::ThreadLevelOneSided
                | Scheme::ThreadLevelTwoSided
                | Scheme::ReplicationSingleAcc
                | Scheme::ReplicationTraditional
        )
    }
}

impl std::fmt::Display for Scheme {
    /// Prints the stable kebab-case id; round-trips through `FromStr`.
    /// Figure-style labels remain available via [`Scheme::label`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheme::Unprotected => f.write_str("unprotected"),
            Scheme::GlobalAbft => f.write_str("global-abft"),
            Scheme::ThreadLevelOneSided => f.write_str("thread-level-one-sided"),
            Scheme::ThreadLevelTwoSided => f.write_str("thread-level-two-sided"),
            Scheme::ReplicationSingleAcc => f.write_str("replication-single-acc"),
            Scheme::ReplicationTraditional => f.write_str("replication-traditional"),
            Scheme::MultiChecksum(rounds) => write!(f, "multi-checksum-{rounds}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big() -> TilingConfig {
        TilingConfig::candidates()[0] // Mt=8, Nt=16
    }

    #[test]
    fn table1_ordering_holds() {
        // One-sided sits between two-sided and replication on MMAs, and
        // between replication and two-sided on checksum ops (§5.2.2's
        // "sweet spot").
        let t = big();
        let rep = Scheme::ReplicationSingleAcc;
        let one = Scheme::ThreadLevelOneSided;
        let two = Scheme::ThreadLevelTwoSided;
        assert!(two.extra_mmas_per_step(&t) < one.extra_mmas_per_step(&t));
        assert!(one.extra_mmas_per_step(&t) < rep.extra_mmas_per_step(&t));
        assert!(rep.checksum_ops_per_step(&t) < one.checksum_ops_per_step(&t));
        assert!(one.checksum_ops_per_step(&t) < two.checksum_ops_per_step(&t));
    }

    #[test]
    fn table1_values_for_the_large_tiling() {
        let t = big();
        assert_eq!(Scheme::ReplicationSingleAcc.extra_mmas_per_step(&t), 64); // MtNt/2
        assert_eq!(Scheme::ThreadLevelTwoSided.extra_mmas_per_step(&t), 1);
        assert_eq!(Scheme::ThreadLevelOneSided.extra_mmas_per_step(&t), 4); // Mt/2
        assert_eq!(Scheme::GlobalAbft.extra_mmas_per_step(&t), 0);
    }

    #[test]
    fn traditional_replication_doubles_accumulator_registers() {
        let t = big();
        assert_eq!(
            Scheme::ReplicationTraditional.extra_regs(&t),
            t.accumulators_per_thread()
        );
        assert!(Scheme::ReplicationSingleAcc.extra_regs(&t) <= 4);
    }

    #[test]
    fn global_abft_adds_no_thread_level_work() {
        let t = big();
        assert_eq!(Scheme::GlobalAbft.extra_mmas_per_step(&t), 0);
        assert_eq!(Scheme::GlobalAbft.checksum_ops_per_step(&t), 0);
        assert!(!Scheme::GlobalAbft.is_thread_level());
        assert!(Scheme::ThreadLevelOneSided.is_thread_level());
    }
}
