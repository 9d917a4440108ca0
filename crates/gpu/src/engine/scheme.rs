//! The thread-level redundancy seam: what a scheme asks the microkernel
//! to carry beside its data accumulators, and how the tile epilogue
//! judges the result.
//!
//! The paper's thread-level schemes reuse operands a GPU thread already
//! holds in registers (§3.5). On the host the unit that holds operands
//! in registers is the [`MICRO_MR`]`×`[`MICRO_NR`] register tile of the
//! microkernel, so that tile is the "thread": its redundant work rides
//! in the same K loop, on the same loaded vectors, and its check is an
//! epilogue over the tile it just produced.
//!
//! [`MICRO_MR`]: super::MICRO_MR
//! [`MICRO_NR`]: super::MICRO_NR

use super::{MICRO_MR, MICRO_NR};

/// The redundant work one register tile carries through its K walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Redundancy {
    /// Nothing — the unprotected kernel (also what the multi-checksum
    /// extension runs; its check happens outside the engine).
    #[default]
    None,
    /// Global ABFT: nothing in the register tile, but the run leaves the
    /// partial sums its kernel-level check combines — `Σ C` per block,
    /// taken from the tile after its write-back, and `A`'s column sums
    /// per stripe, folded from the strip sums staging takes (see
    /// [`super::sums`]).
    GlobalSums,
    /// One-sided ABFT, checked on the side that streams nothing new. A
    /// strip with two or more live rows checks each row against the
    /// weights' column-group sums: `Σ_k a[i][k]·t_g[k]`, with `t_g[k] =
    /// Σ_{j∈g} b[k][j]` summed once per layer, against `Σ_{j∈g} c[i][j]`
    /// of the stored tile — taken by a small pass over the staged strips
    /// after the clean walk. A strip with one live row carries one
    /// checksum chain per column, `Σ_k a[k]·b[k][j]` on the B vectors the
    /// tile already loaded, against the column of the stored tile. No
    /// magnitude rides beside either: `|checksum|` bounds it from below,
    /// and the epilogue takes it only where a compare fails there.
    ColumnChecksum,
    /// Two-sided ABFT: one scalar chain per tile, `Σ_k s[k]·t[k]` with
    /// `t[k] = Σ_j b[k][j]` the tile's B row sum, compared against the
    /// sum of the whole stored tile.
    TileChecksum,
    /// Traditional replication: the tile is computed twice and the two
    /// copies are compared bit for bit.
    ShadowExact,
    /// Single-accumulation replication: the tile is computed twice and
    /// only the two tile *sums* are compared, under a tolerance.
    ShadowSum,
}

impl Redundancy {
    /// Redundant-value FMAs per K step of one register tile computing
    /// `tile_rows` rows ([`MICRO_MR`], or 1 for a strip with one live
    /// row), next to its `tile_rows·MICRO_NR` data FMAs: one-sided
    /// ABFT's row check is one FMA per row — a sixteenth of the data's —
    /// and a one-row tile's column chain is as much again as its data,
    /// replication-priced there and still free, because that tile waits
    /// on its weight stream. Magnitudes (the running error bound:
    /// two-sided's corner carries one, one-sided takes its few on demand)
    /// are bookkeeping, not redundancy, and are not counted.
    pub fn checksum_fmas_per_step(self, tile_rows: usize) -> u64 {
        match self {
            Redundancy::None | Redundancy::GlobalSums => 0,
            Redundancy::ColumnChecksum if tile_rows == 1 => MICRO_NR as u64,
            Redundancy::ColumnChecksum => tile_rows as u64,
            Redundancy::TileChecksum => 1,
            Redundancy::ShadowExact | Redundancy::ShadowSum => (tile_rows * MICRO_NR) as u64,
        }
    }

    /// Checksum lane values one `bm × bn` block tile produces, and the
    /// magnitudes its check reads: `bn` a strip under one-sided ABFT (a
    /// one-row strip's columns; a wider strip uses the first `bn/MR`, one
    /// per (column group, row)), one per register tile under two-sided.
    pub(crate) fn lane_len(self, bm: usize, bn: usize) -> usize {
        match self {
            Redundancy::ColumnChecksum => bm / MICRO_MR * bn,
            Redundancy::TileChecksum => bm / MICRO_MR * (bn / MICRO_NR),
            _ => 0,
        }
    }

    /// Whether A's staging takes the strips' column sums: two-sided
    /// ABFT's corner chain multiplies them, global ABFT's stripe fold adds
    /// them up. One-sided ABFT reads the staged rows themselves.
    pub(crate) fn stages_sums(self) -> bool {
        matches!(self, Redundancy::TileChecksum | Redundancy::GlobalSums)
    }

    /// True for the two replication variants (a second microkernel pass
    /// into a shadow tile).
    pub(crate) fn is_shadow(self) -> bool {
        matches!(self, Redundancy::ShadowExact | Redundancy::ShadowSum)
    }
}

/// A thread-level scheme as the engine sees it: which lanes to carry
/// and the comparison threshold as a linear function of the running
/// magnitude, `threshold = slope · magnitude + floor`. `aiga-core`
/// derives `slope`/`floor` from its analytical tolerance and the round
/// counts of the check; the engine only evaluates them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TileScheme {
    /// Redundant lanes carried through the K walk.
    pub lanes: Redundancy,
    /// Threshold growth per unit of magnitude.
    pub slope: f64,
    /// Absolute threshold floor.
    pub floor: f64,
}

impl TileScheme {
    /// The unprotected kernel: no lanes, no check.
    pub const NONE: TileScheme = TileScheme {
        lanes: Redundancy::None,
        slope: 0.0,
        floor: 0.0,
    };

    /// Whether a residual against `magnitude` flags a fault. Written as
    /// `!(residual <= threshold)` so a non-finite residual or threshold
    /// (an accumulator struck to NaN/Inf) flags instead of passing.
    #[inline(always)]
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub(crate) fn flags(&self, residual: f64, magnitude: f64) -> bool {
        !(residual <= self.threshold(magnitude))
    }

    /// The threshold a residual over `magnitude` is compared against.
    #[inline(always)]
    pub(crate) fn threshold(&self, magnitude: f64) -> f64 {
        self.slope * magnitude + self.floor
    }
}
